package rms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/workload"
)

func newService(t *testing.T) *Service {
	t.Helper()
	s, err := NewService(resource.PaperCluster(), testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServiceDeployReleaseCycle(t *testing.T) {
	s := newService(t)
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25}

	lease, err := s.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID == 0 || len(lease.Placements) == 0 || lease.Latency <= 0 {
		t.Fatalf("lease = %+v", lease)
	}
	st := s.Status()
	if st.ActiveLeases != 1 || st.Utilization <= 0 {
		t.Errorf("status = %+v", st)
	}
	if got, ok := s.Lease(lease.ID); !ok || got.ID != lease.ID {
		t.Error("Lease lookup failed")
	}
	if err := s.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.ActiveLeases != 0 || st.Utilization != 0 {
		t.Errorf("status after release = %+v", st)
	}
	if err := s.Release(lease.ID); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("double release = %v", err)
	}
}

func TestServiceSaturationAndRecovery(t *testing.T) {
	s := newService(t)
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 100}
	var leases []*Lease
	for {
		lease, err := s.Deploy(spec)
		if errors.Is(err, ErrNoCapacity) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, lease)
		if len(leases) > 100 {
			t.Fatal("cluster never saturates")
		}
	}
	if len(leases) < 4 {
		t.Errorf("only %d concurrent GRU-1024 leases; sharing should admit several", len(leases))
	}
	// Freeing one admits one more.
	if err := s.Release(leases[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(spec); err != nil {
		t.Errorf("deploy after release failed: %v", err)
	}
}

func TestServiceMultiPieceLease(t *testing.T) {
	s := newService(t)
	// GRU h=2560 needs a multi-FPGA deployment.
	lease, err := s.Deploy(kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Placements) < 2 {
		t.Errorf("GRU h=2560 lease has %d placements, want >= 2", len(lease.Placements))
	}
	seen := map[int]bool{}
	for _, pl := range lease.Placements {
		if seen[pl.FPGA] {
			t.Error("one lease placed two pieces on the same FPGA")
		}
		seen[pl.FPGA] = true
	}
}

func TestServiceErrors(t *testing.T) {
	if _, err := NewService(resource.PaperCluster(), nil); err == nil {
		t.Error("nil database must fail")
	}
	if _, err := NewService(map[string]int{}, testDB(Flexible)); err == nil {
		t.Error("empty cluster must fail")
	}
}

func TestHTTPHandler(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(testHandler(t, s))
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Deploy.
	resp := post("/deploy", map[string]any{"kind": "LSTM", "hidden": 512, "timesteps": 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lease.ID == 0 || len(lease.Placements) == 0 {
		t.Fatalf("lease = %+v", lease)
	}

	// Status.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ActiveLeases != 1 || len(st.FPGAs) != 4 {
		t.Errorf("status = %+v", st)
	}

	// Lease lookup.
	resp, err = http.Get(srv.URL + "/lease/1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lease lookup status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Release.
	resp = post("/release", map[string]int{"id": lease.ID})
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("release status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post("/release", map[string]int{"id": lease.ID})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double release status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPHandlerValidation(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(testHandler(t, s))
	defer srv.Close()

	cases := []struct {
		path string
		body string
		want int
	}{
		{"/deploy", `{"kind":"CNN","hidden":512,"timesteps":1}`, http.StatusBadRequest},
		{"/deploy", `{"kind":"attention","hidden":64,"timesteps":2}`, http.StatusOK},
		{"/deploy", `{"kind":"Attention","hidden":64,"timesteps":2}`, http.StatusOK},
		{"/deploy", `{"kind":"LSTM","hidden":-1,"timesteps":1}`, http.StatusBadRequest},
		{"/deploy", `not json`, http.StatusBadRequest},
		{"/release", `not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %q = %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}

	// GET on POST-only endpoints.
	resp, _ := http.Get(srv.URL + "/deploy")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /deploy = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad lease id.
	resp, _ = http.Get(srv.URL + "/lease/abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /lease/abc = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/lease/999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /lease/999 = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// A layer too large for the whole cluster must be rejected as
// undeployable through the API.
func TestHTTPUndeployable(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(testHandler(t, s))
	defer srv.Close()
	body := []byte(`{"kind":"LSTM","hidden":8192,"timesteps":1}`)
	resp, err := http.Post(srv.URL+"/deploy", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("undeployable status = %d", resp.StatusCode)
	}
}

// TestFleetReadsDoNotCopy pins the per-event readers on a 1000-device
// fleet, whose membership is fixed at construction: the device table is
// read in place, the feasible ladder is priced once per spec and then
// costs nothing, and a lease snapshot costs as much for 50 leases as for 1.
func TestFleetReadsDoNotCopy(t *testing.T) {
	s, err := NewService(map[string]int{"XCVU37P": 750, "XCKU115": 250}, testDB(Flexible))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = s.ctrl.Devices() }); n != 0 {
		t.Errorf("Controller.Devices allocates %v times, want 0", n)
	}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25}
	if _, err := s.FeasibleDepths(spec); err != nil { // prices the ladder
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = s.FeasibleDepths(spec) }); n != 0 {
		t.Errorf("FeasibleDepths allocates %v times, want 0", n)
	}
	snapshot := func() float64 { return testing.AllocsPerRun(10, func() { _ = s.Leases() }) }
	var one float64
	for i := 1; i <= 50; i++ {
		if _, err := s.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			one = snapshot()
		}
	}
	if fifty := snapshot(); fifty != one {
		t.Errorf("Leases allocates %v times for 1 lease and %v for 50", one, fifty)
	}
}

// TestLeaseViewRefill: a refilled view equals Leases element by element,
// before and after a migration, refills without allocating, and shares no
// placement with the service: scribbling over the view changes nothing the
// service reports.
func TestLeaseViewRefill(t *testing.T) {
	s := newService(t)
	for _, spec := range []kernels.LayerSpec{
		{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25},
		{Kind: kernels.GRU, Hidden: 256, TimeSteps: 10},
		{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 25},
	} {
		if _, err := s.Deploy(spec); err != nil {
			t.Fatal(err)
		}
	}
	var v LeaseView
	same := func(when string) {
		t.Helper()
		got, want := s.ReadLeases(&v), s.Leases()
		if len(got) != len(want) {
			t.Fatalf("%s: view has %d leases, Leases %d", when, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: view lease %d = %+v, Leases has %+v", when, i, got[i], want[i])
			}
		}
	}
	same("first read")
	l := s.Leases()[0]
	if _, err := s.Migrate(l.ID, l.Depth, func(id int) bool { return id == l.Placements[0].FPGA }, false, nil); err != nil {
		t.Fatal(err)
	}
	same("after migrate")
	for _, l := range s.ReadLeases(&v) {
		want, _ := s.Lease(l.ID) // a copy of its own
		for i := range l.Placements {
			l.Placements[i] = Placement{FPGA: -1}
		}
		if got, _ := s.Lease(l.ID); !reflect.DeepEqual(got, want) {
			t.Errorf("writing through the view changed lease %d: %+v, was %+v", l.ID, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { s.ReadLeases(&v) }); n != 0 {
		t.Errorf("refilling a view allocates %v times, want 0", n)
	}
}

// TestFeasibleDepthsMemo: the memoized ladder is the one depths would
// price afresh against the inventory, for every layer the workload
// catalog draws.
func TestFeasibleDepthsMemo(t *testing.T) {
	s := newService(t)
	seen := map[kernels.LayerSpec]bool{}
	for _, comp := range workload.Table1() {
		for _, task := range quickSet(t, comp, 60) {
			if seen[task.Spec] {
				continue
			}
			seen[task.Spec] = true
			want, wantErr := s.depths(task.Spec, s.inv)
			for range 2 {
				got, err := s.FeasibleDepths(task.Spec)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%v: FeasibleDepths = %v, %v; depths = %v, %v", task.Spec, got, err, want, wantErr)
				}
			}
		}
	}
	if len(seen) < 10 {
		t.Fatalf("catalog drew only %d distinct specs", len(seen))
	}
}

// TestServiceCheckInvariants: a service driven only through its own API
// stays conserved through deploy, migrate and release, and blocks
// configured behind its back are reported by device with both counts.
func TestServiceCheckInvariants(t *testing.T) {
	s := newService(t)
	check := func(when string) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("fresh")
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25}
	lease, err := s.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	check("after deploy")
	from := lease.Placements[0]
	moved, err := s.Migrate(lease.ID, lease.Depth, func(id int) bool { return id == from.FPGA }, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("after migrate")

	to := moved.Placements[0]
	if err := s.ctrl.Configure(to.FPGA, 1); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("device %d: %d blocks occupied, leases account for %d", to.FPGA, to.Blocks+1, to.Blocks)
	if err := s.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("leaked block: CheckInvariants = %v, want %q", err, want)
	}
	if err := s.ctrl.Release(to.FPGA, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	check("after release")
	if err := s.ctrl.Configure(from.FPGA, 3); err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("device %d: 3 blocks occupied, leases account for 0", from.FPGA)
	if err := s.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("leaked blocks: CheckInvariants = %v, want %q", err, want)
	}
}
