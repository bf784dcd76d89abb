package cluster

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testRegistry(t *testing.T) (*Registry, *FakeClock) {
	t.Helper()
	clk := NewFakeClock(time.Unix(1000, 0))
	r := NewRegistry(clk)
	for id, typ := range []string{"a", "a", "b"} {
		if err := r.Register(id, typ, 12); err != nil {
			t.Fatal(err)
		}
	}
	return r, clk
}

func TestHealthStateMachine(t *testing.T) {
	r, clk := testRegistry(t)
	if tr := r.Sweep(); len(tr) != 0 {
		t.Fatalf("fresh registry swept to %v", tr)
	}
	if !r.Placeable(1) {
		t.Fatal("healthy device not placeable")
	}

	// Devices beating every HeartbeatInterval stay Healthy however often
	// the registry sweeps in between: the windows are multiples of the
	// beat, so no setting of one can make healthy devices flap or die.
	for beat := 0; beat < 12; beat++ {
		for i := 0; i < 4; i++ {
			clk.Advance(HeartbeatInterval / 4)
			if tr := r.Sweep(); len(tr) != 0 {
				t.Fatalf("beat %d: healthy fleet swept to %v", beat, tr)
			}
		}
		for id := 0; id < 3; id++ {
			if err := r.Heartbeat(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Devices 0 and 2 heartbeat; device 1 goes silent past suspectAfter.
	clk.Advance(suspectAfter + HeartbeatInterval)
	for _, id := range []int{0, 2} {
		if err := r.Heartbeat(id); err != nil {
			t.Fatal(err)
		}
	}
	tr := r.Sweep()
	if len(tr) != 1 || tr[0] != (Transition{Device: 1, From: Healthy, To: Suspect}) {
		t.Fatalf("sweep = %v, want device 1 healthy->suspect", tr)
	}
	if r.Placeable(1) {
		t.Fatal("suspect device must not take placements")
	}
	if r.Evacuate(1) {
		t.Fatal("suspect device must keep its leases")
	}

	// Still silent past deadAfter: suspect -> dead, now evacuated.
	clk.Advance(deadAfter - suspectAfter)
	_ = r.Heartbeat(0)
	_ = r.Heartbeat(2)
	tr = r.Sweep()
	if len(tr) != 1 || tr[0] != (Transition{Device: 1, From: Suspect, To: Dead}) {
		t.Fatalf("sweep = %v, want device 1 suspect->dead", tr)
	}
	if !r.Evacuate(1) {
		t.Fatal("dead device must be evacuated")
	}

	// A late heartbeat revives it.
	if err := r.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(1); st != Healthy {
		t.Fatalf("state after revival = %v, want healthy", st)
	}
}

func TestDrainIsSticky(t *testing.T) {
	r, clk := testRegistry(t)
	if err := r.Drain(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(2); st != Draining {
		t.Fatalf("state = %v, want draining", st)
	}
	if r.Placeable(2) || !r.Evacuate(2) {
		t.Fatal("draining device must refuse placements and evacuate leases")
	}

	// Heartbeats do not clear the admin flag.
	if err := r.Heartbeat(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(2); st != Draining {
		t.Fatalf("heartbeat cleared draining: %v", st)
	}

	// Health transitions ride on top: silence turns it suspect, the next
	// beat returns it to Draining (not Healthy).
	clk.Advance(2 * time.Second)
	_ = r.Heartbeat(0)
	_ = r.Heartbeat(1)
	_ = r.Sweep()
	if st, _ := r.State(2); st != Suspect {
		t.Fatalf("silent draining device = %v, want suspect", st)
	}
	_ = r.Heartbeat(2)
	if st, _ := r.State(2); st != Draining {
		t.Fatalf("revived draining device = %v, want draining", st)
	}

	if err := r.Undrain(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(2); st != Healthy || !r.Placeable(2) {
		t.Fatalf("undrained device = %v, want healthy", st)
	}
}

func TestReportDead(t *testing.T) {
	r, _ := testRegistry(t)
	if err := r.ReportDead(0); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(0); st != Dead {
		t.Fatalf("state = %v, want dead", st)
	}
	if err := r.ReportDead(99); err == nil {
		t.Fatal("report for unknown device must fail")
	}
	if err := r.Heartbeat(99); err == nil {
		t.Fatal("heartbeat from unknown device must fail")
	}
	if err := r.Drain(99); err == nil {
		t.Fatal("drain of unknown device must fail")
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r, clk := testRegistry(t)
	_ = r.Drain(1)
	clk.Advance(time.Second)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d devices, want 3", len(snap))
	}
	for i, d := range snap {
		if d.ID != i {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
		if d.SinceBeat != time.Second {
			t.Fatalf("since_beat = %v, want 1s", d.SinceBeat)
		}
	}
	b, err := json.Marshal(snap[1])
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got["state"] != "draining" {
		t.Fatalf("state marshalled as %v, want \"draining\"", got["state"])
	}
}

// TestRegisterDenseIDs: the table is a slab indexed by id, so ids must
// arrive in order from 0; a duplicate or a gap is refused and leaves the
// table unchanged.
func TestRegisterDenseIDs(t *testing.T) {
	r, _ := testRegistry(t)
	if err := r.Register(1, "a", 12); err == nil {
		t.Error("duplicate id registered")
	}
	if err := r.Register(4, "a", 12); err == nil {
		t.Error("out-of-order id registered")
	}
	if err := r.Register(-1, "a", 12); err == nil {
		t.Error("negative id registered")
	}
	if n := len(r.Snapshot()); n != 3 {
		t.Fatalf("refused registrations changed the table: %d devices", n)
	}
	if _, ok := r.State(-1); ok {
		t.Error("State(-1) found a device")
	}
	if err := r.Register(3, "b", 12); err != nil {
		t.Fatalf("next id refused: %v", err)
	}
}

// TestSweepInIDOrder: with no sort left in Sweep, transitions still come
// back in device id order, as every trace that prints them relies on.
func TestSweepInIDOrder(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	r := NewRegistry(clk)
	for id := 0; id < 40; id++ {
		if err := r.Register(id, "a", 12); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(suspectAfter + HeartbeatInterval)
	for id := 0; id < 40; id += 3 {
		_ = r.Heartbeat(id)
	}
	tr := r.Sweep()
	if len(tr) != 26 {
		t.Fatalf("%d transitions, want 26", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i-1].Device >= tr[i].Device {
			t.Fatalf("transitions out of id order: %v", tr)
		}
	}
}

// TestRegisterFleetAllocations: registering a pre-sized 1,000-device fleet
// makes a constant number of allocations, not one per device.
func TestRegisterFleetAllocations(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	n := testing.AllocsPerRun(5, func() {
		r := NewRegistry(clk)
		r.devices = make([]device, 0, 1000)
		for id := 0; id < 1000; id++ {
			if err := r.Register(id, "a", 12); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > 2 {
		t.Errorf("registering 1000 devices allocates %v times, want <= 2", n)
	}
}

// TestHeartbeatEachMatchesHeartbeat drives two registries on one clock
// through the same random mix of fleet beats, single beats, kills
// (silenced beats), revivals, failure reports, drains, undrains, sweeps and
// clock steps. One beats the fleet through HeartbeatEach, the other id by
// id through Heartbeat; their snapshots, sweep transitions, beat counts
// and unknown-id errors must agree after every step.
func TestHeartbeatEachMatchesHeartbeat(t *testing.T) {
	const devices, seeds, steps = 12, 50, 200
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := NewFakeClock(time.Unix(1000, 0))
		batch, single := NewRegistry(clk), NewRegistry(clk)
		for id := 0; id < devices; id++ {
			if batch.Register(id, "a", 12) != nil || single.Register(id, "a", 12) != nil {
				t.Fatal("register failed")
			}
		}
		ids, silent := make([]int, devices), make([]bool, devices)
		for id := range ids {
			ids[id] = id
		}
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		for step := 0; step < steps; step++ {
			id := rng.Intn(devices+2) - 1 // -1 and devices are unknown
			what := ""
			switch rng.Intn(9) {
			case 0, 1: // beat the fleet, now and then with an unknown id inside it
				what = "beat-all"
				fleet := ids
				if rng.Intn(4) == 0 {
					at := rng.Intn(devices + 1)
					fleet = append(append(append([]int{}, ids[:at]...), []int{-1, devices}[rng.Intn(2)]), ids[at:]...)
				}
				got, gotErr := batch.HeartbeatEach(fleet, silent)
				want, wantErr := 0, error(nil)
				for _, d := range fleet {
					if d >= 0 && d < devices && silent[d] {
						continue
					}
					if wantErr = single.Heartbeat(d); wantErr != nil {
						break
					}
					want++
				}
				if got != want || errText(gotErr) != errText(wantErr) {
					t.Fatalf("seed %d step %d: HeartbeatEach beat %d (%v), Heartbeat one by one %d (%v)", seed, step, got, gotErr, want, wantErr)
				}
			case 2:
				what = "beat-one"
				if a, b := batch.Heartbeat(id), single.Heartbeat(id); errText(a) != errText(b) {
					t.Fatalf("seed %d step %d: heartbeat errors %v and %v", seed, step, a, b)
				}
			case 3:
				what = "kill"
				if id >= 0 && id < devices {
					silent[id] = true
					if rng.Intn(2) == 0 {
						_, _ = batch.ReportDead(id), single.ReportDead(id)
					}
				}
			case 4:
				what = "revive"
				if id >= 0 && id < devices {
					silent[id] = false
					_, _ = batch.Heartbeat(id), single.Heartbeat(id)
				}
			case 5:
				what = "drain"
				_, _ = batch.Drain(id), single.Drain(id)
			case 6:
				what = "undrain"
				_, _ = batch.Undrain(id), single.Undrain(id)
			case 7:
				what = "sweep"
				if a, b := batch.Sweep(), single.Sweep(); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: sweeps %v and %v", seed, step, a, b)
				}
			case 8:
				what = "advance"
				clk.Advance(time.Duration(rng.Int63n(int64(4 * HeartbeatInterval))))
			}
			if a, b := batch.Snapshot(), single.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d (%s %d): snapshots differ:\n%+v\n%+v", seed, step, what, id, a, b)
			}
		}
	}
}
