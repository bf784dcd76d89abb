package cluster

import (
	"errors"

	"mlvfpga/internal/metrics"
	"mlvfpga/internal/rms"
)

// DefragReport is the deterministic record of one defragmentation pass.
type DefragReport struct {
	Run int `json:"run"`
	// ScoreBefore and ScoreAfter are the fragmentation scores around the
	// pass: free blocks stranded on partially-occupied devices. Lower is
	// better — stranded blocks cannot host a deployment that needs a whole
	// device, even though the fleet-wide free total says it should fit.
	ScoreBefore int `json:"score_before"`
	ScoreAfter  int `json:"score_after"`
	// EmptyBefore and EmptyAfter count fully-free devices — the currency
	// deep (multi-piece) deployments actually spend.
	EmptyBefore int `json:"empty_before"`
	EmptyAfter  int `json:"empty_after"`
	// Moves are the consolidation migrations attempted (Kind "defrag").
	Moves []Event `json:"moves,omitempty"`
	// Skipped counts leases left alone: serving traffic, in backoff, over
	// budget, or with no placement that improves the score.
	Skipped int `json:"skipped,omitempty"`
}

// fragTable is the planner's working copy of device occupancy.
type fragTable struct {
	free  map[int]int
	total map[int]int
	typ   map[int]string
	ids   []int // ascending, for deterministic iteration
}

func newFragTable(st rms.ClusterStatus) *fragTable {
	t := &fragTable{free: map[int]int{}, total: map[int]int{}, typ: map[int]string{}}
	for _, f := range st.FPGAs { // Status lists devices sorted by id
		t.free[f.ID] = f.FreeBlocks
		t.total[f.ID] = f.TotalBlocks
		t.typ[f.ID] = f.Device
		t.ids = append(t.ids, f.ID)
	}
	return t
}

// score is the stranded-free-block count: free blocks on devices that are
// neither full nor empty.
func (t *fragTable) score() int {
	s := 0
	for _, id := range t.ids {
		if f := t.free[id]; f > 0 && f < t.total[id] {
			s += f
		}
	}
	return s
}

// empty counts fully-free devices.
func (t *fragTable) empty() int {
	n := 0
	for _, id := range t.ids {
		if t.free[id] == t.total[id] {
			n++
		}
	}
	return n
}

// apply replays a committed migration into the working table.
func (t *fragTable) apply(old, new []rms.Placement) {
	for _, pl := range old {
		t.free[pl.FPGA] += pl.Blocks
	}
	for _, pl := range new {
		t.free[pl.FPGA] -= pl.Blocks
	}
}

// Defrag runs one quiet-period defragmentation pass: idle leases are
// consolidated onto already-occupied devices (same-depth make-before-break
// migrations, best-fit like every placement) whenever the move lowers the
// fragmentation score — free blocks stranded on partially-occupied
// devices. Leases serving traffic are never touched; should load arrive
// mid-move, the data-plane Resize transplants queued and resident streams
// onto the new placement via checkpoint/restore, so callers see latency,
// not errors. The pass shares the control plane's migration budget and
// per-lease backoff, so defrag cannot stampede a fleet that Tick is
// already repairing. Lease order is ascending by id and every time read
// comes from the injected clock, so a scripted run replays exactly.
func (cp *ControlPlane) Defrag() *DefragReport {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.defrags++
	metrics.DefragRuns.Add(1)
	rep := &DefragReport{Run: cp.defrags}
	now := cp.clock.Now()
	budget := migrationBudget
	avoid := func(id int) bool { return !cp.reg.Placeable(id) }

	tab := newFragTable(cp.svc.Status())
	rep.ScoreBefore, rep.EmptyBefore = tab.score(), tab.empty()

	for _, l := range cp.svc.ReadLeases(&cp.view) {
		st := cp.leases[l.ID]
		if st == nil {
			st = &leaseState{}
			cp.leases[l.ID] = st
		}
		if budget <= 0 || now.Before(st.backoffUntil) {
			rep.Skipped++
			continue
		}
		// Quiet gate: only leases with nothing queued and nothing resident
		// are candidates — defrag is maintenance, not load management.
		if cp.loads != nil {
			if load, ok := cp.loads.Load(l.ID); ok && (load.QueueDepth > 0 || load.Pending > 0) {
				rep.Skipped++
				continue
			}
		}
		own := map[int]bool{}
		for _, pl := range l.Placements {
			own[pl.FPGA] = true
		}
		// One placement decision: the service best-fits the lease off its
		// own devices and the pass accepts what it is about to configure
		// only if the table's score drops.
		improves := func(pls []rms.Placement) bool {
			before := tab.score()
			tab.apply(l.Placements, pls)
			after := tab.score()
			tab.apply(pls, l.Placements)
			return after < before
		}
		ev := Event{Lease: l.ID, Kind: "defrag", FromDepth: l.Depth, ToDepth: l.Depth}
		moved, err := cp.svc.Migrate(l.ID, l.Depth,
			func(id int) bool { return avoid(id) || own[id] }, false, improves)
		if errors.Is(err, rms.ErrNoCapacity) {
			rep.Skipped++
			continue
		}
		budget--
		if cp.landLocked(st, &ev, now, err) {
			tab.apply(l.Placements, moved.Placements)
			metrics.DefragMoves.Add(1)
		}
		rep.Moves = append(rep.Moves, ev)
	}
	rep.ScoreAfter, rep.EmptyAfter = tab.score(), tab.empty()
	return rep
}
