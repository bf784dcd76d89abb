package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
