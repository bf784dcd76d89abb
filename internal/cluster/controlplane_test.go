package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

// fakePlane scripts load observations and counts resizes, standing in for
// the rms.DataPlane in deterministic control-plane tests.
type fakePlane struct {
	mu        sync.Mutex
	loads     map[int]rms.LoadStats
	resized   map[int]int // Resize calls by lease
	resizeErr error
	// onLoad, when set, runs at the start of every Load call (outside mu):
	// a test's window into the middle of a control pass.
	onLoad func(id int)
}

func newFakePlane() *fakePlane {
	return &fakePlane{loads: map[int]rms.LoadStats{}, resized: map[int]int{}}
}

func (f *fakePlane) Load(id int) (rms.LoadStats, bool) {
	if f.onLoad != nil {
		f.onLoad(id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.loads[id]
	return l, ok
}

func (f *fakePlane) Resize(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resized[id]++
	return f.resizeErr
}

func (f *fakePlane) setResizeErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resizeErr = err
}

func (f *fakePlane) setLoad(id int, l rms.LoadStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads[id] = l
}

func testControlPlane(t testing.TB, cluster resource.ClusterSpec, cfg Config) (*ControlPlane, *rms.Service, *fakePlane, *FakeClock) {
	t.Helper()
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(cluster, db)
	if err != nil {
		t.Fatal(err)
	}
	clk := NewFakeClock(time.Unix(1000, 0))
	fp := newFakePlane()
	return New(clk, cfg, svc, fp), svc, fp, clk
}

func testSpec() kernels.LayerSpec {
	return kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 10}
}

func TestNewSeedsRegistryFromService(t *testing.T) {
	cp, _, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	snap := cp.Registry().Snapshot()
	if len(snap) != 4 {
		t.Fatalf("registry has %d devices, want 4", len(snap))
	}
	for i, d := range snap {
		if d.ID != i || d.State != Healthy || d.Blocks <= 0 || d.Type == "" {
			t.Fatalf("device %d seeded badly: %+v", i, d)
		}
	}
}

func TestPlacementFilterInstalled(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	home := lease.Placements[0].FPGA
	if err := svc.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	// A drained device must not receive the next placement even without a
	// control tick: the registry is the service's placement filter.
	if err := cp.Drain(home); err != nil {
		t.Fatal(err)
	}
	lease2, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lease2.Placements {
		if pl.FPGA == home {
			t.Fatalf("placement landed on drained device %d", home)
		}
	}
}

func TestTickEvacuatesDrainedDevice(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	home := lease.Placements[0].FPGA
	if err := cp.Drain(home); err != nil {
		t.Fatal(err)
	}
	rep := cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Kind != "evacuate" || rep.Events[0].Err != "" {
		t.Fatalf("events = %+v, want one clean evacuation", rep.Events)
	}
	got, _ := svc.Lease(lease.ID)
	if got.Migrations != 1 || got.Depth != lease.Depth {
		t.Fatalf("lease after evacuation: %+v", got)
	}
	for _, pl := range got.Placements {
		if pl.FPGA == home {
			t.Fatalf("lease still on drained device %d", home)
		}
	}
	// A second tick is a no-op: nothing left to evacuate.
	if rep := cp.Tick(); len(rep.Events) != 0 {
		t.Fatalf("second tick acted: %+v", rep.Events)
	}
}

// TestQuietTickAllocatesNothing: once a fleet has settled (every lease at
// the depth its load asks for, every device beating), a control pass
// returns its report by value and reads the leases into the plane's
// scratch, so it allocates nothing.
func TestQuietTickAllocatesNothing(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	for i := 0; i < 2; i++ {
		if _, err := svc.Deploy(testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // idle leases scale down, then hold
		cp.Tick()
	}
	n := testing.AllocsPerRun(20, func() {
		if rep := cp.Tick(); len(rep.Transitions)+len(rep.Events)+rep.Deferred != 0 {
			t.Fatalf("a quiet fleet's tick acted: %+v", rep)
		}
	})
	if n != 0 {
		t.Errorf("a quiet tick allocates %v times, want 0", n)
	}
}

func TestTickEvacuatesDeadDevice(t *testing.T) {
	cp, svc, _, clk := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	home := lease.Placements[0].FPGA

	// The device goes silent: everyone else heartbeats, it does not.
	clk.Advance(6 * time.Second)
	for _, d := range cp.Registry().Snapshot() {
		if d.ID != home {
			_ = cp.Heartbeat(d.ID)
		}
	}
	rep := cp.Tick()
	if len(rep.Transitions) != 1 || rep.Transitions[0].To != Dead {
		t.Fatalf("transitions = %+v, want %d -> dead", rep.Transitions, home)
	}
	if len(rep.Events) != 1 || rep.Events[0].Kind != "evacuate" || rep.Events[0].Err != "" {
		t.Fatalf("events = %+v, want one clean evacuation", rep.Events)
	}
	got, _ := svc.Lease(lease.ID)
	for _, pl := range got.Placements {
		if pl.FPGA == home {
			t.Fatalf("lease still on dead device %d", home)
		}
	}
}

func TestDepthAdaptsToLoad(t *testing.T) {
	// Four XCVU37P: the only cluster shape whose ladder reaches depth 4
	// (the depth-4 deployment is homogeneous 4×XCVU37P).
	cfg := DefaultConfig()
	cp, svc, fp, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 4}, cfg)
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if lease.Depth != 1 {
		t.Fatalf("greedy deploy at depth %d, want 1", lease.Depth)
	}

	// Burst: a deep backlog scales the lease one rung up.
	fp.setLoad(lease.ID, rms.LoadStats{QueueDepth: cfg.Planner.ScaleUpQueue + 2})
	rep := cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Kind != "scale_up" || rep.Events[0].ToDepth != 2 {
		t.Fatalf("events = %+v, want scale_up to 2", rep.Events)
	}
	got, _ := svc.Lease(lease.ID)
	if got.Depth != 2 || len(got.Placements) != 2 {
		t.Fatalf("lease after burst: depth %d, %d placements", got.Depth, len(got.Placements))
	}
	if fp.resized[lease.ID] != 1 {
		t.Fatalf("pool rebuilt %d times, want once", fp.resized[lease.ID])
	}

	// Burst persists: up to the top rung.
	rep = cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].ToDepth != 4 {
		t.Fatalf("events = %+v, want scale_up to 4", rep.Events)
	}

	// Burst ends: hysteresis holds for ScaleDownIdleTicks ticks, then the
	// lease steps back down one rung per tick.
	fp.setLoad(lease.ID, rms.LoadStats{})
	for i := 0; i < cfg.Planner.ScaleDownIdleTicks-1; i++ {
		if rep := cp.Tick(); len(rep.Events) != 0 {
			t.Fatalf("tick %d acted during hysteresis: %+v", i, rep.Events)
		}
	}
	rep = cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Kind != "scale_down" || rep.Events[0].ToDepth != 2 {
		t.Fatalf("events = %+v, want scale_down to 2", rep.Events)
	}
	for i := 0; i < cfg.Planner.ScaleDownIdleTicks; i++ {
		rep = cp.Tick()
	}
	if len(rep.Events) != 1 || rep.Events[0].ToDepth != 1 {
		t.Fatalf("events = %+v, want scale_down to 1", rep.Events)
	}
	got, _ = svc.Lease(lease.ID)
	if got.Depth != 1 || len(got.Placements) != 1 {
		t.Fatalf("lease after cooldown: depth %d", got.Depth)
	}
}

func TestMigrationBudgetBoundsATick(t *testing.T) {
	cp, svc, fp, _ := testControlPlane(t, resource.PaperCluster(), DefaultConfig())
	// One more loaded lease than a tick may migrate.
	var ids []int
	for i := 0; i < migrationBudget+1; i++ {
		lease, err := svc.Deploy(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, lease.ID)
		fp.setLoad(lease.ID, rms.LoadStats{QueueDepth: 100})
	}
	rep := cp.Tick()
	if len(rep.Events) != migrationBudget || rep.Deferred != 1 {
		t.Fatalf("budgeted tick: %d events, %d deferred, want %d and 1", len(rep.Events), rep.Deferred, migrationBudget)
	}
	// The deferred lease gets its turn on the next tick (the others'
	// burst has passed, so they no longer compete for the budget).
	last := ids[migrationBudget]
	for _, id := range ids[:migrationBudget] {
		fp.setLoad(id, rms.LoadStats{})
	}
	rep = cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Lease != last {
		t.Fatalf("second tick events = %+v, want lease %d", rep.Events, last)
	}
}

func TestFailedMigrationBacksOff(t *testing.T) {
	// A single-device cluster: evacuating its only device can never
	// succeed, so the control plane must retry with exponential backoff.
	cfg := DefaultConfig()
	cp, svc, _, clk := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 1}, cfg)
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Drain(0); err != nil {
		t.Fatal(err)
	}
	rep := cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Err == "" {
		t.Fatalf("events = %+v, want one failed evacuation", rep.Events)
	}
	if !strings.Contains(rep.Events[0].Err, "no capacity") {
		t.Fatalf("err = %q, want capacity failure", rep.Events[0].Err)
	}
	// Within the backoff window the lease is deferred, not retried.
	rep = cp.Tick()
	if len(rep.Events) != 0 || rep.Deferred != 1 {
		t.Fatalf("tick inside backoff: %+v (deferred %d)", rep.Events, rep.Deferred)
	}
	// Past the window it retries (and fails again, doubling the backoff).
	clk.Advance(retryBackoff + time.Millisecond)
	rep = cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Err == "" {
		t.Fatalf("tick after backoff: %+v", rep.Events)
	}
	clk.Advance(retryBackoff + time.Millisecond) // first doubling: still inside
	rep = cp.Tick()
	if rep.Deferred != 1 {
		t.Fatalf("backoff did not double: %+v", rep)
	}
	// The lease is stranded but intact the whole time.
	got, ok := svc.Lease(lease.ID)
	if !ok || len(got.Placements) != 1 {
		t.Fatalf("lease lost during failed evacuation: %+v", got)
	}
}

// TestResizeErrorLeavesTheMigrationStanding: a scale-up lands on a closed
// data plane, whose Resize answers ErrLeaseClosing. The migration stands
// and counts, the event carries the error, and since retrying cannot mend
// it the lease neither backs off nor sees the resize again.
func TestResizeErrorLeavesTheMigrationStanding(t *testing.T) {
	cfg := DefaultConfig()
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.ClusterSpec{resource.XCVU37P.Name: 4}, db)
	if err != nil {
		t.Fatal(err)
	}
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	dp.Close()
	fp := newFakePlane()
	cp := New(NewFakeClock(time.Unix(1000, 0)), cfg, svc, struct {
		LoadSource
		Resizer
	}{fp, dp})
	lease, err := svc.Deploy(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fp.setLoad(lease.ID, rms.LoadStats{QueueDepth: cfg.Planner.ScaleUpQueue + 2})

	base := metrics.Snapshot()
	rep := cp.Tick()
	if len(rep.Events) != 1 || rep.Events[0].Kind != "scale_up" || rep.Events[0].Err != rms.ErrLeaseClosing.Error() {
		t.Fatalf("events = %+v, want a scale_up carrying %q", rep.Events, rms.ErrLeaseClosing)
	}
	if got, _ := svc.Lease(lease.ID); got.Depth != 2 {
		t.Fatalf("depth = %d, want 2 (the migration stands)", got.Depth)
	}
	moved := metrics.Snapshot().Sub(base)
	if m, f := moved.Int(metrics.Migrations), moved.Int(metrics.MigrationFailures); m != 1 || f != 0 {
		t.Errorf("mlv_migrations +%d, mlv_migration_failures +%d, want +1 and +0", m, f)
	}
	if st := cp.leases[lease.ID]; st.backoff != 0 || !st.backoffUntil.IsZero() {
		t.Errorf("lease backs off %v until %v after a resize error", st.backoff, st.backoffUntil)
	}

	// Busy but below the scale-up bar: the planner keeps the depth, and
	// nothing is retried.
	fp.setLoad(lease.ID, rms.LoadStats{QueueDepth: 1, Pending: 1})
	if rep := cp.Tick(); len(rep.Events) != 0 || rep.Deferred != 0 {
		t.Fatalf("later tick: %+v (deferred %d), want nothing", rep.Events, rep.Deferred)
	}
}

// TestLeaseMoveOutcomes walks the three ways the control plane moves a
// lease — evacuation, load-driven depth change, defrag — through the three
// ways a move can end, and checks that each lands the same way: what the
// event says, whether the pool is rebuilt, whether the lease backs off,
// and which counters moved. Only a move that changes depth rebuilds the pool,
// and a failed rebuild leaves the migration standing without a backoff.
func TestLeaseMoveOutcomes(t *testing.T) {
	cfg := DefaultConfig()
	twoDevices := resource.ClusterSpec{resource.XCVU37P.Name: 2}
	// Each move sets its scene and returns the lease that will move and the
	// pass that moves it; rebuilds says whether a landed move changes the
	// lease's depth. migrateFails arranges for svc.Migrate to refuse.
	moves := []struct {
		kind     string
		rebuilds bool
		stage    func(t *testing.T, migrateFails bool) (cp *ControlPlane, fp *fakePlane, lease int, pass func() []Event)
	}{
		{"evacuate", true, func(t *testing.T, migrateFails bool) (*ControlPlane, *fakePlane, int, func() []Event) {
			// A two-piece lease loses one of its two devices: no room for
			// depth 2, so the evacuation walks down to depth 1 — a depth
			// change, the only kind of evacuation that resizes. With both
			// devices dead there is nowhere to go at all.
			cp, svc, fp, _ := testControlPlane(t, twoDevices, cfg)
			l, err := svc.DeployWith(testSpec(), rms.PlaceOptions{Depth: 2})
			if err != nil {
				t.Fatal(err)
			}
			dead := []int{l.Placements[1].FPGA}
			if migrateFails {
				dead = append(dead, l.Placements[0].FPGA)
			}
			for _, id := range dead {
				if err := cp.ReportDead(id); err != nil {
					t.Fatal(err)
				}
			}
			return cp, fp, l.ID, func() []Event { return cp.Tick().Events }
		}},
		{"scale_up", true, func(t *testing.T, migrateFails bool) (*ControlPlane, *fakePlane, int, func() []Event) {
			// A deep queue asks for depth 2; a one-device quota refuses it.
			cp, svc, fp, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 4}, cfg)
			owner := tenant.Tenant{ID: "owner", Key: "k"}
			if migrateFails {
				owner.Quotas.MaxDevices = 1
			}
			reg, err := tenant.NewRegistry(owner)
			if err != nil {
				t.Fatal(err)
			}
			svc.SetTenants(reg)
			l, err := svc.DeployWith(testSpec(), rms.PlaceOptions{Tenant: owner.ID})
			if err != nil {
				t.Fatal(err)
			}
			fp.setLoad(l.ID, rms.LoadStats{QueueDepth: cfg.Planner.ScaleUpQueue + 2})
			return cp, fp, l.ID, func() []Event { return cp.Tick().Events }
		}},
		{"defrag", false, func(t *testing.T, migrateFails bool) (*ControlPlane, *fakePlane, int, func() []Event) {
			// Two leases on two half-empty devices, the second one busy so
			// only the first may move. The service places and the pass
			// accepts in one step, so a layout that changes mid-pass is a
			// skipped lease, not a failed move; what still fails a move is
			// the service refusing it: the mover's tenant has had its
			// quota cut below what the lease already holds.
			cp, svc, fp, _ := testControlPlane(t, twoDevices, cfg)
			first, second := fragment(t, svc)
			fp.setLoad(second.ID, rms.LoadStats{Pending: 1})
			if migrateFails {
				owner := tenant.Tenant{ID: "owner", Key: "k"}
				setQuotas := func(q tenant.Quotas) {
					owner.Quotas = q
					reg, err := tenant.NewRegistry(owner)
					if err != nil {
						t.Fatal(err)
					}
					svc.SetTenants(reg)
				}
				// Re-deploy the first lease as the tenant's, steered back
				// onto its own device.
				setQuotas(tenant.Quotas{})
				other := second.Placements[0].FPGA
				if err := svc.Release(first.ID); err != nil {
					t.Fatal(err)
				}
				if err := cp.Drain(other); err != nil {
					t.Fatal(err)
				}
				var err error
				if first, err = svc.DeployWith(testSpec(), rms.PlaceOptions{Tenant: owner.ID}); err != nil {
					t.Fatal(err)
				}
				if err := cp.Undrain(other); err != nil {
					t.Fatal(err)
				}
				setQuotas(tenant.Quotas{MaxBlocks: 1})
			}
			return cp, fp, first.ID, func() []Event { return cp.Defrag().Moves }
		}},
	}
	outcomes := []struct {
		name                      string
		migrateFails, resizeFails bool
	}{
		{"migrate fails", true, false},
		{"resize fails", false, true},
		{"both succeed", false, false},
	}
	for _, mv := range moves {
		for _, out := range outcomes {
			t.Run(mv.kind+"/"+out.name, func(t *testing.T) {
				cp, fp, lease, pass := mv.stage(t, out.migrateFails)
				if out.resizeFails {
					fp.setResizeErr(fmt.Errorf("engine rebuild failed"))
				}
				base := metrics.Snapshot()
				var ev *Event
				for _, e := range pass() {
					if e.Lease == lease && e.Kind == mv.kind {
						ev = &e
					}
				}
				if ev == nil {
					t.Fatalf("the pass recorded no %s event for lease %d", mv.kind, lease)
				}
				landed := !out.migrateFails
				rebuilt := landed && mv.rebuilds
				failed := out.migrateFails || rebuilt && out.resizeFails
				if (ev.Err != "") != failed {
					t.Errorf("event error = %q, want one: %v", ev.Err, failed)
				}
				cp.mu.Lock()
				st := *cp.leases[lease]
				now := cp.clock.Now()
				cp.mu.Unlock()
				if backedOff := st.backoff > 0 && st.backoffUntil.After(now); backedOff != out.migrateFails {
					t.Errorf("backoff %v until %v (now %v), want backing off: %v", st.backoff, st.backoffUntil, now, out.migrateFails)
				}
				count := func(b bool) int64 {
					if b {
						return 1
					}
					return 0
				}
				if got := int64(fp.resized[lease]); got != count(rebuilt) {
					t.Errorf("pool rebuilt %d times, want %d", got, count(rebuilt))
				}
				moved := metrics.Snapshot().Sub(base)
				if got := moved.Int(metrics.Migrations); got != count(landed) {
					t.Errorf("mlv_migrations moved by %d, want %d", got, count(landed))
				}
				if got := moved.Int(metrics.MigrationFailures); got != count(!landed) {
					t.Errorf("mlv_migration_failures moved by %d, want %d", got, count(!landed))
				}
				if got := moved.Int(metrics.DefragMoves); got != count(landed && mv.kind == "defrag") {
					t.Errorf("mlv_defrag_moves moved by %d, want %d", got, count(landed && mv.kind == "defrag"))
				}
			})
		}
	}
}
