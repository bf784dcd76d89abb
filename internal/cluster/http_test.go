package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/tenant"
)

func TestClusterHTTP(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	defer dp.Close()
	srv := httptest.NewServer(cp.Handler(dp.Handler()))
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Device inventory.
	resp, err := http.Get(srv.URL + "/cluster/devices")
	if err != nil {
		t.Fatal(err)
	}
	var devs []DeviceInfo
	if err := json.NewDecoder(resp.Body).Decode(&devs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(devs) != 4 {
		t.Fatalf("got %d devices, want 4", len(devs))
	}

	// Deploy through the layered base handler, then drain the lease's home
	// device and rebalance.
	resp = post("/deploy", `{"kind":"LSTM","hidden":256,"timesteps":10}`)
	var lease rms.Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(lease.Placements) == 0 {
		t.Fatalf("deploy via base handler: %d %+v", resp.StatusCode, lease)
	}
	home := lease.Placements[0].FPGA

	resp = post("/cluster/drain", `{"id":`+itoa(home)+`}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if st, _ := cp.Registry().State(home); st != Draining {
		t.Fatalf("device %d = %v after drain", home, st)
	}

	resp = post("/cluster/rebalance", ``)
	var rep TickReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rep.Events) != 1 || rep.Events[0].Kind != "evacuate" {
		t.Fatalf("rebalance report: %+v", rep)
	}

	resp = post("/cluster/drain", `{"id":`+itoa(home)+`,"undrain":true}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("undrain: %d", resp.StatusCode)
	}

	// Kill marks a device dead immediately; heartbeat revives it.
	resp = post("/cluster/kill", `{"id":2}`)
	resp.Body.Close()
	if st, _ := cp.Registry().State(2); st != Dead {
		t.Fatalf("device 2 = %v after kill", st)
	}
	resp = post("/cluster/heartbeat", `{"id":2}`)
	resp.Body.Close()
	if st, _ := cp.Registry().State(2); st != Healthy {
		t.Fatalf("device 2 = %v after heartbeat", st)
	}

	// Unknown devices are 404s; wrong methods are 405s.
	resp = post("/cluster/kill", `{"id":99}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("kill unknown: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/cluster/rebalance")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rebalance: %d", resp.StatusCode)
	}

	// Bytes after the object are malformed, not ignored; a body over the
	// cap is refused unread.
	resp = post("/cluster/kill", `{"id":2} x`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kill with trailing bytes: %d, want 400", resp.StatusCode)
	}
	r := httptest.NewRequest(http.MethodPost, "/cluster/drain", strings.NewReader(`{"id":2}`))
	r.ContentLength = tenant.MaxBody + 1
	w := httptest.NewRecorder()
	srv.Config.Handler.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("drain claiming %d bytes: %d, want 413", r.ContentLength, w.Code)
	}
	if st, _ := cp.Registry().State(2); st != Healthy {
		t.Fatalf("device 2 = %v after two refused requests", st)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// servingChain is mlv-serve's handler stack over a paper cluster holding
// one small LSTM lease: the control plane over the data plane, bare (the
// -insecure server) and behind a guard that trusts an admin tenant "ops"
// and a non-admin "dev". The guard's clock reads the chain's now, and
// admitted counts the requests it let through to the bare chain.
type servingChain struct {
	insecure, guarded http.Handler
	reg               *tenant.Registry
	lease             *rms.Lease
	now               time.Time
	admitted          int
}

func newServingChain(t testing.TB) *servingChain {
	t.Helper()
	cp, svc, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	reg, err := tenant.NewRegistry(
		tenant.Tenant{ID: "ops", Key: "ops-key", Admin: true},
		tenant.Tenant{ID: "dev", Key: "dev-key"},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetTenants(reg)
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	dp.SetTenants(reg)
	t.Cleanup(dp.Close)
	c := &servingChain{reg: reg, now: time.Unix(1_700_000_000, 0)}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}
	if c.lease, err = svc.DeployWith(spec, rms.PlaceOptions{Tenant: "ops"}); err != nil {
		t.Fatal(err)
	}
	c.insecure = cp.Handler(dp.Handler())
	c.guarded = tenant.NewGuard(reg, tenant.GuardOptions{Now: func() time.Time { return c.now }}).Wrap(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.admitted++
			c.insecure.ServeHTTP(w, r)
		}))
	return c
}

// inferBody is a valid /infer body for the chain's lease.
func (c *servingChain) inferBody() string {
	row := strings.TrimSuffix(strings.Repeat("0.25,", c.lease.Spec.Hidden), ",")
	return `{"id":` + itoa(c.lease.ID) + `,"inputs":[[` + row + `],[` + row + `]]}`
}

// request builds a request for the chain; a POST is signed as "ops" at the
// chain's clock with the given nonce.
func (c *servingChain) request(method, path, body, nonce string) *http.Request {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if method == http.MethodPost {
		tenant.SignRequest(r, "ops", []byte("ops-key"), []byte(body), c.now, nonce)
	}
	return r
}

// TestRoutingStatusAndLocation pins what each chain answers, status and
// Location, for the paths where the control plane's routes meet the data
// plane's: exact routes on both sides, unknown /cluster paths, and paths
// that http.ServeMux cleans or redirects to a trailing slash.
func TestRoutingStatusAndLocation(t *testing.T) {
	c := newServingChain(t)
	infer := c.inferBody()
	cases := []struct {
		method, path, body string
		code               int
		location           string
	}{
		{"POST", "/infer", infer, http.StatusOK, ""},
		{"GET", "/infer", "", http.StatusMethodNotAllowed, ""},
		{"GET", "/lease/" + itoa(c.lease.ID), "", http.StatusOK, ""},
		{"GET", "/lease", "", http.StatusMovedPermanently, "/lease/"},
		{"GET", "/cluster/devices", "", http.StatusOK, ""},
		{"GET", "/cluster/nope", "", http.StatusNotFound, ""},
		{"GET", "/cluster", "", http.StatusNotFound, ""},
		{"GET", "/cluster/devices/", "", http.StatusNotFound, ""},
		{"POST", "//infer", infer, http.StatusMovedPermanently, "/infer"},
		{"POST", "/cluster/../infer", infer, http.StatusMovedPermanently, "/infer"},
		{"POST", "/infer/../cluster/kill", `{"id":0}`, http.StatusMovedPermanently, "/cluster/kill"},
		{"GET", "/debug/vars", "", http.StatusOK, ""},
	}
	for name, h := range map[string]http.Handler{"insecure": c.insecure, "guarded": c.guarded} {
		for i, tc := range cases {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, c.request(tc.method, tc.path, tc.body, name+itoa(i)))
			if w.Code != tc.code || w.Header().Get("Location") != tc.location {
				t.Errorf("%s %s %s: %d Location %q, want %d %q (body %.80q)", name, tc.method, tc.path,
					w.Code, w.Header().Get("Location"), tc.code, tc.location, w.Body.String())
			}
		}
	}
}

// FuzzGuardedChain sends the guarded chain requests with a fuzzed method,
// path, auth headers and body, one fresh chain per input so that no
// nonce or lease outlives it. Whatever arrives, nothing panics; a mutating
// request reaches the bare chain only with a signature tenant.Sign
// reproduces under its tenant's registered key, never as a non-admin on
// /cluster/, and any 2xx it answers is such a request; and a 401, a 413,
// or a 403 on /cluster/ (the guard's refusals; the bare chain answers
// 403 only to a tenant acting on another's lease) never reaches it. The
// seeds are a valid signed request per path, as the admin and as the
// non-admin.
func FuzzGuardedChain(f *testing.F) {
	paths := [...]string{"/infer", "/deploy", "/release", "/preempt", "/cluster/"}
	c := newServingChain(f)
	ts := strconv.FormatInt(c.now.Unix(), 10)
	bodies := [...]string{
		c.inferBody(),
		`{"kind":"LSTM","hidden":64,"timesteps":2}`,
		`{"id":` + itoa(c.lease.ID) + `}`,
		`{"id":` + itoa(c.lease.ID) + `,"slots":1}`,
		`{"id":0}`,
	}
	for i, body := range bodies {
		path, sub := paths[i], ""
		if path == "/cluster/" {
			sub = "drain"
		}
		for _, who := range []string{"ops", "dev"} {
			nonce := who + itoa(i)
			sig := tenant.Sign([]byte(who+"-key"), http.MethodPost, path+sub, []byte(body), c.now.Unix(), nonce)
			f.Add(http.MethodPost, uint8(i), sub, who, ts, nonce, sig, []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, method string, sel uint8, sub, id, stamp, nonce, sig string, body []byte) {
		c := newServingChain(t)
		path := paths[int(sel)%len(paths)]
		if path == "/cluster/" {
			path += sub
		}
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		r.Method, r.URL.Path = method, path
		for k, v := range map[string]string{
			tenant.HeaderTenant: id, tenant.HeaderTimestamp: stamp, tenant.HeaderNonce: nonce, tenant.HeaderSignature: sig,
		} {
			r.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		c.guarded.ServeHTTP(w, r)

		mutating := method != http.MethodGet && method != http.MethodHead
		if mutating && w.Code/100 == 2 && c.admitted == 0 {
			t.Fatalf("%s %s: %d without reaching the handler", method, path, w.Code)
		}
		if mutating && c.admitted > 0 {
			who, ok := c.reg.Lookup(id)
			unix, err := strconv.ParseInt(stamp, 10, 64)
			if !ok || err != nil || tenant.Sign([]byte(who.Key), method, path, body, unix, nonce) != sig {
				t.Fatalf("%s %s as %q reached the handler (%d) with a signature no registered key makes", method, path, id, w.Code)
			}
			if !who.Admin && strings.HasPrefix(path, "/cluster/") {
				t.Fatalf("%s %s: non-admin %q reached the handler (%d)", method, path, id, w.Code)
			}
		}
		refused := w.Code == http.StatusUnauthorized || w.Code == http.StatusRequestEntityTooLarge ||
			w.Code == http.StatusForbidden && strings.HasPrefix(path, "/cluster/")
		if refused && c.admitted > 0 {
			t.Fatalf("%s %s as %q: the handler answered %d", method, path, id, w.Code)
		}
	})
}

// discardWriter is a reusable ResponseWriter that keeps the status only.
type discardWriter struct {
	hdr  http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestGuardedInferAllocations holds a warmed, signed /infer through the
// whole chain to its allocation count. The requests are built and signed
// beforehand, so the count is the server's alone: none. The guard hands
// the verified tenant on with the body it lends. The handler borrows the
// decoded inputs, the result retire reads the outputs into, batch_stats'
// by_op bytes, and the response buffer and its encoder from pools. Before
// the tenant rode on the body it was 2, the guard's WithContext and
// WithValue; before by_op was appended into the scratch it was 3, encoding/json taking it from OpCounts.MarshalJSON's
// fresh slice; before the pools it was 9 (the scan 2, the outputs and the
// InferResult 3, a fresh encoder 1); before the guard stopped allocating
// it was 35: an HMAC built per request, every header key canonicalised as
// it was read, the body wrapped in a LimitReader and a NopCloser and read
// twice, three mux lookups, and a boxed Tenant and Content-Type value.
func TestGuardedInferAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under -race")
	}
	c := newServingChain(t)
	body := c.inferBody()
	const warm, runs = 50, 200
	reqs := make([]*http.Request, warm+runs+1)
	stamps := make([]time.Time, len(reqs))
	for i := range reqs {
		// A clock an hour on per request keeps the nonce table at one entry.
		stamps[i] = c.now.Add(time.Duration(i) * time.Hour)
		c.now = stamps[i]
		reqs[i] = c.request(http.MethodPost, "/infer", body, "a"+itoa(i))
	}
	w := &discardWriter{hdr: http.Header{}}
	n := 0
	serve := func() {
		clear(w.hdr)
		w.code = 0
		c.now = stamps[n]
		c.guarded.ServeHTTP(w, reqs[n])
		if w.code != http.StatusOK {
			t.Fatalf("request %d: %d", n, w.code)
		}
		n++
	}
	for n < warm { // the engine, the pools and the JSON encoder
		serve()
	}
	allocs := testing.AllocsPerRun(runs, serve)
	if allocs != 0 {
		t.Errorf("guarded /infer allocates %v times, want 0", allocs)
	}
}

// raceEnabled reports a -race build.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
