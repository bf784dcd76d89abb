package rms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

// TestHTTPErrorPaths table-drives the hardened error contract: every
// endpoint answers a wrong method with 405 and malformed JSON with 400,
// always as a JSON {"error": ...} body.
func TestHTTPErrorPaths(t *testing.T) {
	svc, dp, lease := testPlane(t, DefaultInferOptions())
	_ = svc
	h := dp.Handler()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"deploy wrong method", http.MethodGet, "/deploy", "", http.StatusMethodNotAllowed},
		{"deploy delete", http.MethodDelete, "/deploy", "", http.StatusMethodNotAllowed},
		{"deploy malformed json", http.MethodPost, "/deploy", "{not json", http.StatusBadRequest},
		{"deploy unknown kind", http.MethodPost, "/deploy", `{"kind":"CNN","hidden":8,"timesteps":2}`, http.StatusBadRequest},
		{"deploy non-positive dims", http.MethodPost, "/deploy", `{"kind":"LSTM","hidden":0,"timesteps":2}`, http.StatusBadRequest},
		{"release wrong method", http.MethodGet, "/release", "", http.StatusMethodNotAllowed},
		{"release malformed json", http.MethodPost, "/release", "][", http.StatusBadRequest},
		{"release unknown lease", http.MethodPost, "/release", `{"id":424242}`, http.StatusNotFound},
		{"infer wrong method", http.MethodPut, "/infer", "", http.StatusMethodNotAllowed},
		{"infer malformed json", http.MethodPost, "/infer", `{"id":`, http.StatusBadRequest},
		{"infer unknown lease", http.MethodPost, "/infer", `{"id":424242,"inputs":[[0]]}`, http.StatusNotFound},
		{fmt.Sprintf("infer bad shape for lease %d", lease.ID), http.MethodPost, "/infer",
			fmt.Sprintf(`{"id":%d,"inputs":[[1,2,3]]}`, lease.ID), http.StatusBadRequest},
		{"lease wrong method", http.MethodPost, "/lease/1", "", http.StatusMethodNotAllowed},
		{"lease bad id", http.MethodGet, "/lease/banana", "", http.StatusBadRequest},
		{"lease unknown id", http.MethodGet, "/lease/424242", "", http.StatusNotFound},
		{"status wrong method", http.MethodPost, "/status", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *bytes.Reader
			if tc.body == "" {
				body = bytes.NewReader(nil)
			} else {
				body = bytes.NewReader([]byte(tc.body))
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, body))
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

// TestHTTPPreempt drives the /preempt endpoint: error contract and a
// successful eviction count.
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

	// No engine yet: a valid no-op answering zero evictions.
	w := do(http.MethodPost, fmt.Sprintf(`{"id":%d,"slots":1}`, lease.ID))
	if w.Code != http.StatusOK {
		t.Fatalf("preempt idle lease: %d %s", w.Code, w.Body.String())
	}
	var rep struct {
		Evicted int `json:"evicted"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil || rep.Evicted != 0 {
		t.Fatalf("body %q, want {\"evicted\":0}", w.Body.String())
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
