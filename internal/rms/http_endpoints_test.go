package rms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

// TestHTTPErrorPaths table-drives the hardened error contract: every
// endpoint answers a wrong method with 405, malformed JSON (trailing bytes
// included) with 400 and a body over the cap with 413, guarded or not,
// always as a JSON {"error": ...} body — and no error path but an
// oversized or bulky body allocates in proportion to the request, nor
// leaves an /infer scratch in the pool larger than the lease's layer.
func TestHTTPErrorPaths(t *testing.T) {
	_, dp, lease := testPlane(t, DefaultInferOptions())
	reg, err := tenant.NewRegistry(tenant.Tenant{ID: "a", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	h := dp.Handler()
	guarded := tenant.NewGuard(reg, tenant.GuardOptions{}).Wrap(h)
	outOfRange := fmt.Sprintf(`{"id":%d,"inputs":[[%s70000]]}`, lease.ID, strings.Repeat("0,", lease.Spec.Hidden-1))
	// One row of half a million numbers, ≈ 1 MB, for a lease of 2 × 256:
	// decoded whole, refused by shape, and its scratch never pooled.
	bulky := fmt.Sprintf(`{"id":%d,"inputs":[[%s0]]}`, lease.ID, strings.Repeat("0,", 500_000))
	// The lease's engine is built, so scratch named for it may be pooled,
	// and two collections empty the pool of what earlier tests left.
	if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
		// signed sends the request through the guard, claim overrides its
		// Content-Length, oversize makes the body MaxBody+1 bytes of
		// whitespace without one, and bulk marks a body that is decoded
		// whole before it is refused.
		signed, oversize, bulk bool
		claim                  int64
	}{
		{name: "deploy wrong method", method: http.MethodGet, path: "/deploy", code: http.StatusMethodNotAllowed},
		{name: "deploy delete", method: http.MethodDelete, path: "/deploy", code: http.StatusMethodNotAllowed},
		{name: "deploy malformed json", method: http.MethodPost, path: "/deploy", body: "{not json", code: http.StatusBadRequest},
		{name: "deploy unknown kind", method: http.MethodPost, path: "/deploy", body: `{"kind":"CNN","hidden":8,"timesteps":2}`, code: http.StatusBadRequest},
		{name: "deploy non-positive dims", method: http.MethodPost, path: "/deploy", body: `{"kind":"LSTM","hidden":0,"timesteps":2}`, code: http.StatusBadRequest},
		{name: "release wrong method", method: http.MethodGet, path: "/release", code: http.StatusMethodNotAllowed},
		{name: "release malformed json", method: http.MethodPost, path: "/release", body: "][", code: http.StatusBadRequest},
		{name: "release unknown lease", method: http.MethodPost, path: "/release", body: `{"id":424242}`, code: http.StatusNotFound},
		{name: "infer wrong method", method: http.MethodPut, path: "/infer", code: http.StatusMethodNotAllowed},
		{name: "infer malformed json", method: http.MethodPost, path: "/infer", body: `{"id":`, code: http.StatusBadRequest},
		{name: "infer unknown lease", method: http.MethodPost, path: "/infer", body: `{"id":424242,"inputs":[[0]]}`, code: http.StatusNotFound},
		{name: fmt.Sprintf("infer bad shape for lease %d", lease.ID), method: http.MethodPost, path: "/infer",
			body: fmt.Sprintf(`{"id":%d,"inputs":[[1,2,3]]}`, lease.ID), code: http.StatusBadRequest},
		{name: "lease wrong method", method: http.MethodPost, path: "/lease/1", code: http.StatusMethodNotAllowed},
		{name: "lease bad id", method: http.MethodGet, path: "/lease/banana", code: http.StatusBadRequest},
		{name: "lease unknown id", method: http.MethodGet, path: "/lease/424242", code: http.StatusNotFound},
		{name: "status wrong method", method: http.MethodPost, path: "/status", code: http.StatusMethodNotAllowed},
		{name: "infer element outside binary16", method: http.MethodPost, path: "/infer", body: outOfRange, code: http.StatusBadRequest},
		{name: "infer 1 MB body of another shape", method: http.MethodPost, path: "/infer", body: bulky, bulk: true, code: http.StatusBadRequest},
		// json.Decoder used to stop at the end of the first value.
		{name: "deploy trailing bytes", method: http.MethodPost, path: "/deploy", body: `{"kind":"LSTM","hidden":8,"timesteps":2} x`, code: http.StatusBadRequest},
		{name: "release trailing bytes", method: http.MethodPost, path: "/release", body: fmt.Sprintf(`{"id":%d} x`, lease.ID), code: http.StatusBadRequest},
		{name: "infer trailing bytes", method: http.MethodPost, path: "/infer", body: fmt.Sprintf(`{"id":%d,"inputs":[[0]]} x`, lease.ID), code: http.StatusBadRequest},
		{name: "preempt trailing bytes", method: http.MethodPost, path: "/preempt", body: fmt.Sprintf(`{"id":%d,"slots":1}{}`, lease.ID), code: http.StatusBadRequest},
		{name: "infer body over the cap", method: http.MethodPost, path: "/infer", oversize: true, code: http.StatusRequestEntityTooLarge},
		{name: "infer body over the cap, guarded", method: http.MethodPost, path: "/infer", oversize: true, signed: true, code: http.StatusRequestEntityTooLarge},
		{name: "infer Content-Length over the cap", method: http.MethodPost, path: "/infer", body: `{"id":1}`, claim: tenant.MaxBody + 1, code: http.StatusRequestEntityTooLarge},
		{name: "infer Content-Length over the cap, guarded", method: http.MethodPost, path: "/infer", body: `{"id":1}`, claim: tenant.MaxBody + 1, signed: true, code: http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader = strings.NewReader(tc.body)
			if tc.oversize {
				body = io.LimitReader(spaces{}, tenant.MaxBody+1)
			}
			r := httptest.NewRequest(tc.method, tc.path, body)
			if tc.claim != 0 {
				r.ContentLength = tc.claim
			}
			target := h
			if tc.signed {
				tenant.SignRequest(r, "a", []byte("k"), []byte(tc.body), time.Now(), tc.name)
				target = guarded
			}
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			target.ServeHTTP(w, r)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 && !tc.oversize && !tc.bulk {
				t.Errorf("allocated %d bytes", n)
			}
			for i := 0; i < 8; i++ {
				sc := scratchPool.Get().(*inferScratch)
				if steps := lease.Spec.TimeSteps; cap(sc.rows) > steps || cap(sc.res.Outputs) > steps ||
					cap(sc.back) > steps*lease.Spec.Hidden || cap(sc.out) > steps*lease.Spec.Hidden {
					t.Errorf("pooled scratch holds %d rows over %d inputs, %d over %d outputs: more than the %d × %d layer",
						cap(sc.rows), cap(sc.back), cap(sc.res.Outputs), cap(sc.out), steps, lease.Spec.Hidden)
				}
			}
			if w.Code != tc.code {
				t.Fatalf("code %d, want %d (body %s)", w.Code, tc.code, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("body %q is not a JSON error", w.Body.String())
			}
		})
	}
}

// TestWriteJSONMatchesEncoder: a response body, from /infer's
// appendInferResult or through reflection, is encoding/json's, byte for
// byte, for the values it
// prints differently (signed zero, exponent form below 1e-6 and from 1e21,
// binary16's extremes), and a value it refuses is a 500 with a JSON error
// where it was a 200 with an empty body.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	row := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 5e-324, 1e20, 1e21, -1.5e300,
		65504, -65504, 6.103515625e-05, 5.960464477539063e-08, 0.1, 1.0 / 3}
	res := InferResult{LeaseID: 3, Outputs: [][]float64{row, row[:2]}, BatchSize: 2, Stream: 1, QueueWait: 1234}
	res.BatchStats.Instructions, res.BatchStats.MACs = 7, 1<<40
	res.BatchStats.ByOp[1], res.BatchStats.ByOp[5] = 3, 4
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&res); err != nil {
		t.Fatal(err)
	}
	writers := map[string]func(http.ResponseWriter){
		"appended":  func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, &res) },
		"reflected": func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, res) },
	}
	for name, write := range writers {
		w := httptest.NewRecorder()
		write(w)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: %d %s\nencoding/json writes %s", name, w.Code, w.Body.Bytes(), want.Bytes())
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res.Outputs[1][1] = v
		for name, write := range writers {
			w := httptest.NewRecorder()
			write(w)
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
				t.Errorf("%s: output %v: %d %q, want 500 and a JSON error", name, v, w.Code, w.Body.String())
			}
		}
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPQuotaResponses checks the 429-with-Retry-After contract for
// quota and in-flight breaches surfaced through the HTTP layer.
func TestHTTPQuotaResponses(t *testing.T) {
	svc, dp, _ := testPlane(t, DefaultInferOptions())
	reg, err := tenant.NewRegistry(
		tenant.Tenant{ID: "tiny", Key: "tiny-key", Quotas: tenant.Quotas{MaxLeases: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	now := time.Unix(1_700_000_000, 0)
	nonce := 0
	guard := tenant.NewGuard(reg, tenant.GuardOptions{Now: func() time.Time { return now }})
	h := guard.Wrap(dp.Handler())

	post := func(path, body string) *httptest.ResponseRecorder {
		nonce++
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		tenant.SignRequest(r, "tiny", []byte("tiny-key"), []byte(body), now, fmt.Sprintf("n%d", nonce))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	deployBody := `{"kind":"LSTM","hidden":256,"timesteps":2}`
	if w := post("/deploy", deployBody); w.Code != http.StatusOK {
		t.Fatalf("first deploy: %d %s", w.Code, w.Body.String())
	}
	before := metrics.CapacityRejections.Value()
	w := post("/deploy", deployBody)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("quota-blocked deploy: %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}
	// Quota rejections are the tenant's problem, not the cluster's: they
	// must NOT count as capacity rejections.
	if got := metrics.CapacityRejections.Value(); got != before {
		t.Fatalf("capacity rejections moved by %d on a quota 429", got-before)
	}
}

// TestHTTPCapacity503RetryAfter checks that a genuine out-of-capacity
// deploy answers 503 + Retry-After and counts in mlv_capacity_rejections.
func TestHTTPCapacity503RetryAfter(t *testing.T) {
	svc := newService(t)
	h := testHandler(t, svc)
	// Fill the paper cluster with big leases until a deploy fails.
	spec := `{"kind":"GRU","hidden":2560,"timesteps":100}`
	before := metrics.CapacityRejections.Value()
	var last *httptest.ResponseRecorder
	for i := 0; i < 32; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/deploy", strings.NewReader(spec)))
		last = w
		if w.Code != http.StatusOK {
			break
		}
	}
	if last.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturating deploy: %d, want 503 (body %s)", last.Code, last.Body.String())
	}
	if last.Header().Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}
	if got := metrics.CapacityRejections.Value(); got != before+1 {
		t.Fatalf("capacity rejections delta = %d, want 1", got-before)
	}
}

// TestHTTPReleaseOwnership checks lease ownership on /release: a tenant
// cannot release another tenant's lease, an admin can.
func TestHTTPReleaseOwnership(t *testing.T) {
	svc, dp, _ := testPlane(t, DefaultInferOptions())
	reg, err := tenant.NewRegistry(
		tenant.Tenant{ID: "owner", Key: "ko"},
		tenant.Tenant{ID: "other", Key: "kx"},
		tenant.Tenant{ID: "root", Key: "kr", Admin: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	now := time.Unix(1_700_000_000, 0)
	nonce := 0
	guard := tenant.NewGuard(reg, tenant.GuardOptions{Now: func() time.Time { return now }})
	h := guard.Wrap(dp.Handler())

	post := func(id, key, path, body string) *httptest.ResponseRecorder {
		nonce++
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		tenant.SignRequest(r, id, []byte(key), []byte(body), now, fmt.Sprintf("own%d", nonce))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	w := post("owner", "ko", "/deploy", `{"kind":"LSTM","hidden":256,"timesteps":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("deploy: %d %s", w.Code, w.Body.String())
	}
	var lease Lease
	if err := json.Unmarshal(w.Body.Bytes(), &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Tenant != "owner" {
		t.Fatalf("lease tenant = %q, want owner", lease.Tenant)
	}
	releaseBody := fmt.Sprintf(`{"id":%d}`, lease.ID)
	if w := post("other", "kx", "/release", releaseBody); w.Code != http.StatusForbidden {
		t.Fatalf("cross-tenant release: %d, want 403 (body %s)", w.Code, w.Body.String())
	}
	if _, ok := svc.Lease(lease.ID); !ok {
		t.Fatal("lease vanished after forbidden release")
	}
	if w := post("root", "kr", "/release", releaseBody); w.Code != http.StatusNoContent {
		t.Fatalf("admin release: %d, want 204 (body %s)", w.Code, w.Body.String())
	}
}

// TestHTTPUnauthenticatedMutationsRejected drives every mutating endpoint
// through a guard with no credentials: all must reject 401.
func TestHTTPUnauthenticatedMutationsRejected(t *testing.T) {
	_, dp, lease := testPlane(t, DefaultInferOptions())
	reg, err := tenant.NewRegistry(tenant.Tenant{ID: "a", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	guard := tenant.NewGuard(reg, tenant.GuardOptions{})
	h := guard.Wrap(dp.Handler())

	for _, tc := range []struct{ path, body string }{
		{"/deploy", `{"kind":"LSTM","hidden":256,"timesteps":2}`},
		{"/release", fmt.Sprintf(`{"id":%d}`, lease.ID)},
		{"/infer", fmt.Sprintf(`{"id":%d,"inputs":[[0]]}`, lease.ID)},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != http.StatusUnauthorized {
			t.Errorf("unsigned POST %s: %d, want 401", tc.path, w.Code)
		}
	}
	// Reads stay open.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/status", nil))
	if w.Code != http.StatusOK {
		t.Errorf("GET /status through guard: %d, want 200", w.Code)
	}
}

// TestHTTPDeployWithDepthField checks the /deploy depth constraint maps
// ErrNoSuchDepth to 422.
func TestHTTPDeployWithDepthField(t *testing.T) {
	svc := newService(t)
	h := testHandler(t, svc)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/deploy",
		strings.NewReader(`{"kind":"LSTM","hidden":256,"timesteps":2,"depth":3}`)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("impossible depth: %d, want 422 (body %s)", w.Code, w.Body.String())
	}
}

// TestHTTPPreempt drives the /preempt endpoint: error contract and the
// requested eviction count, zero before the lease has an engine.
func TestHTTPPreempt(t *testing.T) {
	_, dp, lease := testPlane(t, DefaultInferOptions())
	h := dp.Handler()

	do := func(method, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, "/preempt", strings.NewReader(body)))
		return w
	}

	if w := do(http.MethodGet, ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /preempt: %d, want 405", w.Code)
	}
	if w := do(http.MethodPost, "{oops"); w.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", w.Code)
	}
	if w := do(http.MethodPost, `{"id":424242,"slots":1}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown lease: %d, want 404", w.Code)
	}

	// No engine yet: a valid no-op requesting zero evictions. Once the
	// lease has served, the slots asked for are requested.
	for _, c := range []struct {
		infer     bool
		requested int
	}{{false, 0}, {true, 2}} {
		if c.infer {
			if _, err := dp.InferAs("", lease.ID, testInputs(lease.Spec, 1)); err != nil {
				t.Fatal(err)
			}
		}
		w := do(http.MethodPost, fmt.Sprintf(`{"id":%d,"slots":2}`, lease.ID))
		if w.Code != http.StatusOK {
			t.Fatalf("preempt lease: %d %s", w.Code, w.Body.String())
		}
		var rep struct {
			Requested int `json:"requested"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || rep.Requested != c.requested {
			t.Fatalf("body %q, want {\"requested\":%d}", w.Body.String(), c.requested)
		}
	}
}

// TestHTTPPreemptOwnership checks a tenant cannot preempt another
// tenant's lease while admins can.
func TestHTTPPreemptOwnership(t *testing.T) {
	svc, dp, _ := testPlane(t, DefaultInferOptions())
	reg, err := tenant.NewRegistry(
		tenant.Tenant{ID: "owner", Key: "ko"},
		tenant.Tenant{ID: "other", Key: "kx"},
		tenant.Tenant{ID: "root", Key: "kr", Admin: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	now := time.Unix(1_700_000_000, 0)
	nonce := 0
	guard := tenant.NewGuard(reg, tenant.GuardOptions{Now: func() time.Time { return now }})
	h := guard.Wrap(dp.Handler())

	post := func(id, key, path, body string) *httptest.ResponseRecorder {
		nonce++
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		tenant.SignRequest(r, id, []byte(key), []byte(body), now, fmt.Sprintf("pre%d", nonce))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	w := post("owner", "ko", "/deploy", `{"kind":"LSTM","hidden":256,"timesteps":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("deploy: %d %s", w.Code, w.Body.String())
	}
	var lease Lease
	if err := json.Unmarshal(w.Body.Bytes(), &lease); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":%d,"slots":1}`, lease.ID)
	if w := post("other", "kx", "/preempt", body); w.Code != http.StatusForbidden {
		t.Fatalf("cross-tenant preempt: %d, want 403 (body %s)", w.Code, w.Body.String())
	}
	if w := post("owner", "ko", "/preempt", body); w.Code != http.StatusOK {
		t.Fatalf("owner preempt: %d (body %s)", w.Code, w.Body.String())
	}
	if w := post("root", "kr", "/preempt", body); w.Code != http.StatusOK {
		t.Fatalf("admin preempt: %d (body %s)", w.Code, w.Body.String())
	}
}
