package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
)

// fragmentN deploys leases until n devices each hold one, then releases
// every other lease, leaving n idle single-piece leases stranded on n
// partially-occupied devices, in device order.
func fragmentN(t *testing.T, svc *rms.Service, n int) []*rms.Lease {
	t.Helper()
	var lone []*rms.Lease
	var extras []int
	seen := map[int]bool{}
	for i := 0; i < 64*n && len(lone) < n; i++ {
		l, err := svc.Deploy(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if fpga := l.Placements[0].FPGA; !seen[fpga] {
			seen[fpga] = true
			lone = append(lone, l)
		} else {
			extras = append(extras, l.ID)
		}
	}
	if len(lone) < n {
		t.Fatalf("%d deploys reached only %d devices, want %d", 64*n, len(lone), n)
	}
	for _, id := range extras {
		if err := svc.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	return lone
}

// fragment is the canonical fragmented layout a consolidation pass must
// fix: two idle leases on two devices.
func fragment(t *testing.T, svc *rms.Service) (*rms.Lease, *rms.Lease) {
	t.Helper()
	lone := fragmentN(t, svc, 2)
	return lone[0], lone[1]
}

func TestDefragConsolidatesIdleLeases(t *testing.T) {
	cp, svc, fp, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 4}, DefaultConfig())
	first, second := fragment(t, svc)
	runsBase := metrics.DefragRuns.Value()
	movesBase := metrics.DefragMoves.Value()

	rep := cp.Defrag()
	if rep.Run != 1 {
		t.Fatalf("run = %d, want 1", rep.Run)
	}
	if len(rep.Moves) != 1 || rep.Moves[0].Kind != "defrag" || rep.Moves[0].Err != "" {
		t.Fatalf("moves = %+v, want one clean defrag move", rep.Moves)
	}
	if rep.Moves[0].FromDepth != rep.Moves[0].ToDepth {
		t.Fatalf("defrag changed depth: %+v", rep.Moves[0])
	}
	if rep.ScoreAfter >= rep.ScoreBefore {
		t.Fatalf("score did not improve: %d -> %d", rep.ScoreBefore, rep.ScoreAfter)
	}
	if rep.EmptyAfter <= rep.EmptyBefore {
		t.Fatalf("empty devices did not increase: %d -> %d", rep.EmptyBefore, rep.EmptyAfter)
	}
	gotFirst, _ := svc.Lease(first.ID)
	gotSecond, _ := svc.Lease(second.ID)
	if gotFirst.Placements[0].FPGA != gotSecond.Placements[0].FPGA {
		t.Fatalf("leases still apart: fpga %d vs %d",
			gotFirst.Placements[0].FPGA, gotSecond.Placements[0].FPGA)
	}
	if gotFirst.Migrations+gotSecond.Migrations != 1 {
		t.Fatalf("migrations = %d+%d, want exactly one move",
			gotFirst.Migrations, gotSecond.Migrations)
	}
	// The pool follows depth alone, so a same-depth move keeps the
	// mover's engine.
	if moved := rep.Moves[0].Lease; fp.resized[moved] != 0 {
		t.Fatalf("same-depth move rebuilt lease %d's pool %d times", moved, fp.resized[moved])
	}
	if metrics.DefragRuns.Value()-runsBase != 1 || metrics.DefragMoves.Value()-movesBase != 1 {
		t.Fatalf("counters: runs +%d moves +%d, want +1 +1",
			metrics.DefragRuns.Value()-runsBase, metrics.DefragMoves.Value()-movesBase)
	}

	// The layout has converged: a second pass finds nothing to improve.
	rep = cp.Defrag()
	if len(rep.Moves) != 0 || rep.Run != 2 {
		t.Fatalf("second pass: %+v, want no moves", rep)
	}
	if rep.ScoreAfter != rep.ScoreBefore {
		t.Fatalf("idempotent pass changed score: %d -> %d", rep.ScoreBefore, rep.ScoreAfter)
	}
}

func TestDefragSkipsBusyLeases(t *testing.T) {
	cp, svc, fp, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 4}, DefaultConfig())
	first, second := fragment(t, svc)
	fp.setLoad(first.ID, rms.LoadStats{Pending: 1})
	fp.setLoad(second.ID, rms.LoadStats{QueueDepth: 3})

	rep := cp.Defrag()
	if len(rep.Moves) != 0 {
		t.Fatalf("defrag moved busy leases: %+v", rep.Moves)
	}
	if rep.Skipped != 2 {
		t.Fatalf("skipped = %d, want 2", rep.Skipped)
	}
	if rep.ScoreAfter != rep.ScoreBefore {
		t.Fatalf("no-op pass changed score: %d -> %d", rep.ScoreBefore, rep.ScoreAfter)
	}

	// Quiesce: the same layout now consolidates.
	fp.setLoad(first.ID, rms.LoadStats{})
	fp.setLoad(second.ID, rms.LoadStats{})
	if rep := cp.Defrag(); len(rep.Moves) != 1 {
		t.Fatalf("quiet pass: %+v, want one move", rep.Moves)
	}
}

func TestDefragRespectsBudgetAndBackoff(t *testing.T) {
	// One more stranded lease than a pass may move.
	n := migrationBudget + 2
	cp, svc, _, clk := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: n}, DefaultConfig())
	fragmentN(t, svc, n)

	rep := cp.Defrag()
	if len(rep.Moves) != migrationBudget || rep.Skipped == 0 {
		t.Fatalf("first pass: %d moves, %d skipped, want %d moves and the rest deferred", len(rep.Moves), rep.Skipped, migrationBudget)
	}
	// A lease in backoff is left alone even with budget to spare.
	cp.mu.Lock()
	for _, st := range cp.leases {
		st.backoffUntil = clk.Now().Add(time.Second)
	}
	cp.mu.Unlock()
	if rep := cp.Defrag(); len(rep.Moves) != 0 {
		t.Fatalf("pass inside backoff acted: %+v", rep)
	}
	clk.Advance(2 * time.Second)
	if rep := cp.Defrag(); len(rep.Moves) != 1 {
		t.Fatalf("pass after backoff: %+v, want the deferred move", rep.Moves)
	}
}

func TestDefragHTTPAndCLIShape(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 4}, DefaultConfig())
	fragment(t, svc)
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	defer dp.Close()
	srv := httptest.NewServer(cp.Handler(dp.Handler()))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/cluster/defrag", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster/defrag: %d", resp.StatusCode)
	}
	var rep DefragReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 1 || rep.Moves[0].Kind != "defrag" {
		t.Fatalf("report over HTTP: %+v", rep)
	}

	// Wrong method is a JSON 405, matching the rest of the surface.
	getResp, err := http.Get(srv.URL + "/cluster/defrag")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /cluster/defrag: %d, want 405", getResp.StatusCode)
	}
}

// A pass must never raise the score it exists to lower. The planner used
// to preview a move with its own best-fit over the lease's current piece
// shapes, then call a Migrate that walks every deployment of that depth in
// greedy order: here the preview scored the lone XCKU115 lease joining its
// neighbours (9 → 0) while Migrate landed it on the empty XCVU37P (9 → 13).
// The placement Migrate is about to configure is now the one that is
// scored, so the lease either consolidates or stays.
func TestDefragNeverRaisesScore(t *testing.T) {
	cp, svc, _, _ := testControlPlane(t,
		resource.ClusterSpec{resource.XCVU37P.Name: 2, resource.XCKU115.Name: 3}, DefaultConfig())
	ids := []int{0, 1, 2, 3, 4}
	// deployOn steers a deployment with drains: only device dev is placeable.
	deployOn := func(dev int, spec kernels.LayerSpec) {
		t.Helper()
		for _, id := range ids {
			if id != dev {
				if err := cp.Drain(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		l, err := svc.Deploy(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Placements) != 1 || l.Placements[0].FPGA != dev {
			t.Fatalf("%v landed on %+v, want device %d", spec, l.Placements, dev)
		}
		for _, id := range ids {
			if err := cp.Undrain(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 512, TimeSteps: 1}
	big := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1536, TimeSteps: 10}
	deployOn(2, small) // alone on an XCKU115
	deployOn(3, small) // two neighbours on the next
	deployOn(3, small)
	deployOn(0, big) // one XCVU37P full, the other empty
	deployOn(0, big)

	rep := cp.Defrag()
	if rep.ScoreAfter > rep.ScoreBefore {
		t.Fatalf("defrag raised the score %d -> %d: %+v", rep.ScoreBefore, rep.ScoreAfter, rep.Moves)
	}
	if st := svc.Status(); st.FPGAs[1].FreeBlocks != st.FPGAs[1].TotalBlocks {
		t.Fatalf("defrag spent the empty device: %+v", st.FPGAs[1])
	}
}

// The pass scores on a table read at its start but places through the
// service, so a fleet that fills up mid-pass leaves nothing to accept: the
// lease is skipped, not charged a failed migration and a backoff.
func TestDefragSkipsWhenFleetFillsMidPass(t *testing.T) {
	cp, svc, fp, _ := testControlPlane(t, resource.ClusterSpec{resource.XCVU37P.Name: 2}, DefaultConfig())
	first, second := fragment(t, svc)
	fp.setLoad(second.ID, rms.LoadStats{Pending: 1})
	fp.onLoad = func(id int) {
		for err := error(nil); id == first.ID && err == nil; {
			_, err = svc.Deploy(testSpec())
		}
	}
	failures := metrics.MigrationFailures.Value()
	rep := cp.Defrag()
	if len(rep.Moves) != 0 || rep.Skipped != 2 {
		t.Fatalf("pass over a full fleet: %d moves, %d skipped, want 0 and 2", len(rep.Moves), rep.Skipped)
	}
	if got := metrics.MigrationFailures.Value() - failures; got != 0 {
		t.Fatalf("mlv_migration_failures moved by %d, want 0", got)
	}
}
