package cluster

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
)

// goldenStack is one complete serving stack — admission service, batched
// data plane and control plane on a fake clock — isolated from its twin.
type goldenStack struct {
	svc *rms.Service
	dp  *rms.DataPlane
	cp  *ControlPlane
}

func newGoldenStack(t *testing.T, opts rms.InferOptions) *goldenStack {
	t.Helper()
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.PaperCluster(), db)
	if err != nil {
		t.Fatal(err)
	}
	dp := rms.NewDataPlane(svc, opts)
	t.Cleanup(dp.Close)
	cp := New(NewFakeClock(time.Unix(1000, 0)), DefaultConfig(), svc, dp)
	return &goldenStack{svc: svc, dp: dp, cp: cp}
}

func goldenInputs(spec kernels.LayerSpec, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, spec.TimeSteps)
	for ts := range in {
		v := make([]float64, spec.Hidden)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		in[ts] = v
	}
	return in
}

// TestMigratedLeaseServesGoldenOutputs streams the same requests at two
// twin leases on independent stacks and migrates one of them mid-stream
// (control-plane drain + evacuation tick). Every /infer response payload
// must stay byte-identical to the unmigrated twin's: migration moves the
// lease's placements but must not perturb a single output bit, because
// weights are regenerated from the lease identity, not copied state.
func TestMigratedLeaseServesGoldenOutputs(t *testing.T) {
	opts := rms.InferOptions{
		MaxBatch: 4,
		Machines: 1,
		Tiles:    1,
		Seed:     42,
	}
	spec := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 4}

	migrated := newGoldenStack(t, opts)
	pristine := newGoldenStack(t, opts)

	// Both stacks assign lease ID 1 to their first deploy, so the twins
	// share weights by construction.
	leaseA, err := migrated.svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	leaseB, err := pristine.svc.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if leaseA.ID != leaseB.ID {
		t.Fatalf("twin leases diverged before the first request: IDs %d vs %d", leaseA.ID, leaseB.ID)
	}

	const requests = 24
	outputsAt := func(s *goldenStack, i int) []byte {
		t.Helper()
		res, err := s.dp.InferAs("", leaseA.ID, goldenInputs(spec, int64(i)))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		raw, err := json.Marshal(res.Outputs)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		return raw
	}
	migrate := func(i int) {
		t.Helper()
		lease, ok := migrated.svc.Lease(leaseA.ID)
		if !ok {
			t.Fatalf("lease %d vanished before migration", leaseA.ID)
		}
		home := lease.Placements[0].FPGA
		if err := migrated.cp.Drain(home); err != nil {
			t.Fatalf("request %d: drain device %d: %v", i, home, err)
		}
		rep := migrated.cp.Tick()
		for _, ev := range rep.Events {
			if ev.Err != "" {
				t.Fatalf("request %d: %s of lease %d failed: %s", i, ev.Kind, ev.Lease, ev.Err)
			}
		}
		moved, _ := migrated.svc.Lease(leaseA.ID)
		for _, pl := range moved.Placements {
			if pl.FPGA == home {
				t.Fatalf("request %d: lease still on drained device %d", i, home)
			}
		}
		if err := migrated.cp.Undrain(home); err != nil {
			t.Fatalf("request %d: undrain device %d: %v", i, home, err)
		}
	}

	migrations := 0
	for i := 0; i < requests; i++ {
		// Migrate twice mid-stream — at one third and two thirds of the
		// way through — so responses are compared before, between and
		// after migrations.
		if i == requests/3 || i == 2*requests/3 {
			migrate(i)
			migrations++
		}
		got, want := outputsAt(migrated, i), outputsAt(pristine, i)
		if string(got) != string(want) {
			t.Fatalf("request %d (after %d migrations): outputs diverged\n  migrated: %.120s\n  pristine: %.120s",
				i, migrations, got, want)
		}
	}

	lease, _ := migrated.svc.Lease(leaseA.ID)
	if lease.Migrations < 2 {
		t.Fatalf("stream finished with %d migrations recorded, want >= 2", lease.Migrations)
	}
}
