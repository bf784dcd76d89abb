package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/softblock"
)

func leaf(id string, luts int64) *softblock.Block {
	return softblock.NewLeaf(id, "m_"+id, "", resource.Vector{LUTs: luts}, 32, 32)
}

func simdLeaf(id string) *softblock.Block {
	return softblock.NewLeaf(id, "simd", "", resource.Vector{LUTs: 100, DSPs: 4}, 32, 32)
}

func TestPartitionPipelineMinCut(t *testing.T) {
	// Pipeline a-b-c-d with bandwidths 64, 8, 64: must cut at the 8-bit edge.
	p := softblock.NewPipeline("p", []*softblock.Block{
		leaf("a", 10), leaf("b", 10), leaf("c", 10), leaf("d", 10),
	}, []int{64, 8, 64})
	res, err := Partition(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := res.Root
	if root.IsLeaf() {
		t.Fatal("pipeline must split")
	}
	if root.CutBits != 8 || root.CutKind != softblock.Pipeline {
		t.Errorf("cut = %d bits kind %v, want 8 bits pipeline", root.CutBits, root.CutKind)
	}
	if root.Left.Block.NumLeaves() != 2 || root.Right.Block.NumLeaves() != 2 {
		t.Errorf("split shape = %d/%d leaves", root.Left.Block.NumLeaves(), root.Right.Block.NumLeaves())
	}
}

func TestPartitionPipelineTieBreaksBalanced(t *testing.T) {
	// Equal bandwidths: prefer the resource-balanced cut.
	p := softblock.NewPipeline("p", []*softblock.Block{
		leaf("a", 10), leaf("b", 10), leaf("c", 10), leaf("d", 10),
	}, []int{32, 32, 32})
	res, err := Partition(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.Left.Block.NumLeaves() != 2 {
		t.Errorf("tie must cut in the middle, got %d/%d",
			res.Root.Left.Block.NumLeaves(), res.Root.Right.Block.NumLeaves())
	}
}

func TestPartitionDataEvenSplit(t *testing.T) {
	d := softblock.NewDataParallel("d", []*softblock.Block{
		simdLeaf("x0"), simdLeaf("x1"), simdLeaf("x2"), simdLeaf("x3"), simdLeaf("x4"), simdLeaf("x5"),
	})
	res, err := Partition(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := res.Root
	if root.CutBits != 0 || root.CutKind != softblock.DataParallel {
		t.Errorf("data cut = %d bits kind %v", root.CutBits, root.CutKind)
	}
	if root.Left.Block.NumLeaves() != 3 || root.Right.Block.NumLeaves() != 3 {
		t.Errorf("uneven split: %d/%d", root.Left.Block.NumLeaves(), root.Right.Block.NumLeaves())
	}
}

func TestPartitionAtomicStops(t *testing.T) {
	l := leaf("solo", 10)
	res, err := Partition(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Root.IsLeaf() {
		t.Error("atomic block must not split")
	}
	if res.MaxPieces() != 1 {
		t.Errorf("MaxPieces = %d", res.MaxPieces())
	}
}

func TestPartitionTwoIterations(t *testing.T) {
	d := softblock.NewDataParallel("d", []*softblock.Block{
		simdLeaf("x0"), simdLeaf("x1"), simdLeaf("x2"), simdLeaf("x3"),
	})
	res, err := Partition(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPieces() != 4 {
		t.Errorf("MaxPieces = %d, want 4", res.MaxPieces())
	}
	// Every frontier size 1..4 must exist (Fig. 6).
	for k := 1; k <= 4; k++ {
		fr, err := res.Frontier(k)
		if err != nil {
			t.Fatalf("Frontier(%d): %v", k, err)
		}
		if len(fr) != k {
			t.Fatalf("Frontier(%d) has %d pieces", k, len(fr))
		}
		total := 0
		for _, n := range fr {
			total += n.Block.NumLeaves()
		}
		if total != 4 {
			t.Errorf("Frontier(%d) covers %d leaves, want 4", k, total)
		}
	}
	if _, err := res.Frontier(5); !errors.Is(err, ErrTooManyPieces) {
		t.Errorf("Frontier(5) = %v, want ErrTooManyPieces", err)
	}
	if _, err := res.Frontier(0); err == nil {
		t.Error("Frontier(0) must error")
	}
}

func TestPartitionNested(t *testing.T) {
	// data(pipeline(a,b) x4): first split is data-even; second splits each
	// half's pipelines at the min-bandwidth edge? No: halves are data blocks
	// of 2 lanes, so the second iteration splits them evenly again.
	lanes := make([]*softblock.Block, 4)
	for i := range lanes {
		lanes[i] = softblock.NewPipeline(
			fmt.Sprintf("lane%d", i),
			[]*softblock.Block{simdLeaf(fmt.Sprintf("a%d", i)), simdLeaf(fmt.Sprintf("b%d", i))},
			[]int{16},
		)
	}
	root := softblock.NewDataParallel("root", lanes)
	res, err := Partition(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPieces() != 4 {
		t.Fatalf("MaxPieces = %d, want 4", res.MaxPieces())
	}
	fr, _ := res.Frontier(4)
	for _, n := range fr {
		if n.Block.Kind != softblock.Pipeline {
			t.Errorf("4-piece frontier must be single lanes, got %v", n.Block.Kind)
		}
	}
	// Data splits carry no cut bandwidth.
	if bits := res.TotalCutBits(fr); bits != 0 {
		t.Errorf("TotalCutBits = %d, want 0 for data splits", bits)
	}
}

func TestTotalCutBitsPipeline(t *testing.T) {
	p := softblock.NewPipeline("p", []*softblock.Block{
		leaf("a", 10), leaf("b", 10), leaf("c", 10), leaf("d", 10),
	}, []int{64, 8, 64})
	res, err := Partition(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := res.Frontier(res.MaxPieces())
	// All three cuts pay off: 8 + 64 + 64.
	if bits := res.TotalCutBits(full); bits != 136 {
		t.Errorf("TotalCutBits(full) = %d, want 136", bits)
	}
	two, _ := res.Frontier(2)
	if bits := res.TotalCutBits(two); bits != 8 {
		t.Errorf("TotalCutBits(2) = %d, want 8 (min cut only)", bits)
	}
	one, _ := res.Frontier(1)
	if bits := res.TotalCutBits(one); bits != 0 {
		t.Errorf("TotalCutBits(1) = %d, want 0", bits)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(nil, 1); err == nil {
		t.Error("nil block must error")
	}
	if _, err := Partition(leaf("a", 1), -1); err == nil {
		t.Error("negative iterations must error")
	}
}

func TestAllPiecesCount(t *testing.T) {
	d := softblock.NewDataParallel("d", []*softblock.Block{
		simdLeaf("x0"), simdLeaf("x1"), simdLeaf("x2"), simdLeaf("x3"),
	})
	res, _ := Partition(d, 2)
	// Full binary tree with 4 leaves: 7 nodes.
	if got := len(res.AllPieces()); got != 7 {
		t.Errorf("AllPieces = %d, want 7", got)
	}
}

// Property: every frontier conserves the leaf soft blocks (no leaf lost or
// duplicated) and piece resources sum to the whole.
func TestQuickFrontierConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		kids := make([]*softblock.Block, n)
		for i := range kids {
			kids[i] = simdLeaf(fmt.Sprintf("x%d", i))
		}
		var root *softblock.Block
		if r.Intn(2) == 0 {
			root = softblock.NewDataParallel("root", kids)
		} else {
			bits := make([]int, n-1)
			for i := range bits {
				bits[i] = 8 * (1 + r.Intn(16))
			}
			root = softblock.NewPipeline("root", kids, bits)
		}
		res, err := Partition(root, 1+r.Intn(3))
		if err != nil {
			return false
		}
		for k := 1; k <= res.MaxPieces(); k++ {
			fr, err := res.Frontier(k)
			if err != nil {
				return false
			}
			var sum resource.Vector
			leaves := 0
			for _, nd := range fr {
				sum = sum.Add(nd.Block.Resources)
				leaves += nd.Block.NumLeaves()
			}
			if leaves != n || sum != root.Resources {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the chosen pipeline cut bandwidth is minimal among all edges.
func TestQuickMinCutIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		kids := make([]*softblock.Block, n)
		for i := range kids {
			kids[i] = leaf(fmt.Sprintf("x%d", i), int64(10+r.Intn(100)))
		}
		bits := make([]int, n-1)
		min := 1 << 30
		for i := range bits {
			bits[i] = 8 * (1 + r.Intn(64))
			if bits[i] < min {
				min = bits[i]
			}
		}
		p := softblock.NewPipeline("p", kids, bits)
		res, err := Partition(p, 1)
		if err != nil {
			return false
		}
		return res.Root.CutBits == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLadder(t *testing.T) {
	// Pipeline a-b-c-d with bandwidths 64, 8, 64, partitioned twice:
	// depth 1 costs nothing, depth 2 pays the 8-bit min cut, depth 4 pays
	// every cut.
	p := softblock.NewPipeline("p", []*softblock.Block{
		leaf("a", 10), leaf("b", 10), leaf("c", 10), leaf("d", 10),
	}, []int{64, 8, 64})
	res, err := Partition(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ladder := res.Ladder()
	if len(ladder) != res.MaxPieces() {
		t.Fatalf("ladder has %d rungs, want %d", len(ladder), res.MaxPieces())
	}
	if ladder[0] != (Rung{Pieces: 1, CutBits: 0}) {
		t.Errorf("rung 1 = %+v, want free single-device deployment", ladder[0])
	}
	if ladder[1] != (Rung{Pieces: 2, CutBits: 8}) {
		t.Errorf("rung 2 = %+v, want the 8-bit min cut", ladder[1])
	}
	last := ladder[len(ladder)-1]
	if last.Pieces != res.MaxPieces() || last.CutBits != 64+8+64 {
		t.Errorf("deepest rung = %+v, want all cuts paid (%d bits)", last, 64+8+64)
	}
	// Cost must be monotonic: more devices never talk less.
	for i := 1; i < len(ladder); i++ {
		if ladder[i].CutBits < ladder[i-1].CutBits {
			t.Errorf("ladder cost not monotonic: %+v after %+v", ladder[i], ladder[i-1])
		}
	}
}

// Rung is one supported deployment depth of the partition tree: deploying
// onto Pieces devices costs CutBits of inter-device bandwidth per element.
type Rung struct {
	// Pieces is the deployment's device count.
	Pieces int
	// CutBits is the total communication bandwidth (bits per element)
	// crossing the cuts above this frontier — what the runtime pays the
	// interconnect for every step at this depth.
	CutBits int
}

// Ladder enumerates every supported deployment depth with its
// communication cost: rung k deploys the accelerator onto k devices
// (Fig. 6's 1..2^N ladder). FuzzBisect holds its cost monotone.
func (r *Result) Ladder() []Rung {
	max := r.MaxPieces()
	out := make([]Rung, 0, max)
	for k := 1; k <= max; k++ {
		frontier, err := r.Frontier(k)
		if err != nil {
			// Frontier(k) for k <= MaxPieces only fails on degenerate
			// trees; skip the rung rather than invent a cost.
			continue
		}
		out = append(out, Rung{Pieces: k, CutBits: r.TotalCutBits(frontier)})
	}
	return out
}
