// Package partition implements the partitioning step of the paper's mapping
// process (§2.2.2): the decomposed data-path tree is iteratively bisected so
// the accelerator can be deployed onto multiple FPGAs. The extracted
// parallel patterns prune the search space:
//
//   - a Pipeline block is cut at the inter-stage connection with the
//     minimal communication bandwidth;
//   - a DataParallel block is split evenly into two halves.
//
// With N iterations the result is a binary partition tree whose frontiers
// support deployments onto 1..2^N devices (Fig. 6): e.g. pieces #2, #3 and
// #4 of a 2-iteration tree deploy the accelerator onto 3 FPGAs.
package partition

import (
	"errors"
	"fmt"

	"mlvfpga/internal/softblock"
)

// Node is one vertex of the binary partition tree.
type Node struct {
	// Block is the soft block this node deploys as a unit.
	Block *softblock.Block
	// CutBits is the communication bandwidth (bits per element) crossing
	// the cut between Left and Right. Zero for data-parallel splits (the
	// halves do not talk to each other in steady state) and for
	// unsplittable nodes.
	CutBits int
	// CutKind records which pattern was split.
	CutKind softblock.Kind
	// Left and Right are the two halves; nil for an unsplit node.
	Left, Right *Node
}

// IsLeaf reports whether the node was not split further.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Result is the partition tree plus bookkeeping.
type Result struct {
	Root       *Node
	Iterations int
}

// ErrAtomic is returned when a requested split cannot proceed because the
// block is a leaf soft block (a basic module is never divided).
var ErrAtomic = errors.New("partition: block is atomic")

// ErrTooManyPieces is returned when a frontier of the requested size does
// not exist.
var ErrTooManyPieces = errors.New("partition: not enough partition-tree leaves")

// Partition bisects the data-path block for the given number of iterations.
// Atomic blocks simply stop splitting — the tree may be shallower than
// requested on some branches, matching the paper's observation that one or
// two iterations suffice for most designs.
func Partition(data *softblock.Block, iterations int) (*Result, error) {
	if data == nil {
		return nil, errors.New("partition: nil block")
	}
	if iterations < 0 {
		return nil, fmt.Errorf("partition: negative iteration count %d", iterations)
	}
	// Every split halves a non-empty set of the tree's leaves, so the
	// partition tree has fewer than twice as many nodes.
	leaves := data.NumLeaves()
	nodes := append(make([]Node, 0, 2*leaves), Node{Block: data})
	frontier, next := append(make([]*Node, 0, leaves), &nodes[0]), make([]*Node, 0, leaves)
	for it := 0; it < iterations; it++ {
		next = next[:0]
		for _, n := range frontier {
			l, r, cutBits, kind, err := bisect(n.Block)
			if errors.Is(err, ErrAtomic) {
				next = append(next, n)
				continue
			}
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, Node{Block: l}, Node{Block: r})
			n.Left, n.Right = &nodes[len(nodes)-2], &nodes[len(nodes)-1]
			n.CutBits = cutBits
			n.CutKind = kind
			next = append(next, n.Left, n.Right)
		}
		frontier, next = next, frontier
	}
	return &Result{Root: &nodes[0], Iterations: iterations}, nil
}

// bisect splits one soft block into two clusters following §2.2.2.
func bisect(b *softblock.Block) (left, right *softblock.Block, cutBits int, kind softblock.Kind, err error) {
	switch b.Kind {
	case softblock.Leaf:
		return nil, nil, 0, b.Kind, ErrAtomic

	case softblock.Pipeline:
		cut := minBandwidthCut(b)
		left = sliceAsBlock(b, 0, cut+1, "L")
		right = sliceAsBlock(b, cut+1, len(b.Children), "R")
		return left, right, b.StageBits[cut], softblock.Pipeline, nil

	case softblock.DataParallel:
		k := len(b.Children)
		if k < 2 {
			return nil, nil, 0, b.Kind, ErrAtomic
		}
		half := k / 2
		left = groupAsBlock(b, b.Children[:half], "L")
		right = groupAsBlock(b, b.Children[half:], "R")
		return left, right, 0, softblock.DataParallel, nil
	}
	return nil, nil, 0, b.Kind, fmt.Errorf("partition: unknown kind %v", b.Kind)
}

// minBandwidthCut returns the index of the inter-stage connection with the
// minimal bandwidth; ties break toward the most resource-balanced cut.
func minBandwidthCut(b *softblock.Block) int {
	best := 0
	bestBits := b.StageBits[0]
	bestImb := imbalanceAfterCut(b, 0)
	for i := 1; i < len(b.StageBits); i++ {
		imb := imbalanceAfterCut(b, i)
		if b.StageBits[i] < bestBits || (b.StageBits[i] == bestBits && imb < bestImb) {
			best, bestBits, bestImb = i, b.StageBits[i], imb
		}
	}
	return best
}

// imbalanceAfterCut scores the resource imbalance of cutting after stage i
// (lower is better), using LUTs+DSPs as the packing-critical classes.
func imbalanceAfterCut(b *softblock.Block, i int) int64 {
	var left, right int64
	for j, c := range b.Children {
		w := c.Resources.LUTs + 100*c.Resources.DSPs
		if j <= i {
			left += w
		} else {
			right += w
		}
	}
	if left > right {
		return left - right
	}
	return right - left
}

// sliceAsBlock wraps children [lo,hi) of a pipeline as a block.
func sliceAsBlock(b *softblock.Block, lo, hi int, tag string) *softblock.Block {
	if hi-lo == 1 {
		return b.Children[lo]
	}
	kids := append([]*softblock.Block{}, b.Children[lo:hi]...)
	bits := append([]int{}, b.StageBits[lo:hi-1]...)
	return softblock.NewPipeline(b.ID+"/"+tag, kids, bits)
}

// groupAsBlock wraps a subset of data-parallel children as a block.
func groupAsBlock(b *softblock.Block, kids []*softblock.Block, tag string) *softblock.Block {
	if len(kids) == 1 {
		return kids[0]
	}
	return softblock.NewDataParallel(b.ID+"/"+tag, append([]*softblock.Block{}, kids...))
}

// MaxPieces returns the number of leaves of the partition tree — the
// largest supported deployment.
func (r *Result) MaxPieces() int { return countLeaves(r.Root) }

func countLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Frontier returns a deployment of exactly k pieces: starting from the
// root, the piece with the largest resource demand is split until k pieces
// exist. This is how the runtime picks mapping results for a k-FPGA
// deployment (Fig. 6).
func (r *Result) Frontier(k int) ([]*Node, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: frontier size %d", k)
	}
	if k > r.MaxPieces() {
		return nil, fmt.Errorf("%w: want %d pieces, have %d", ErrTooManyPieces, k, r.MaxPieces())
	}
	frontier := []*Node{r.Root}
	for len(frontier) < k {
		// Split the heaviest splittable piece.
		bestIdx := -1
		var bestW int64 = -1
		for i, n := range frontier {
			if n.IsLeaf() {
				continue
			}
			w := weight(n.Block)
			if w > bestW {
				bestW, bestIdx = w, i
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("%w: want %d pieces", ErrTooManyPieces, k)
		}
		n := frontier[bestIdx]
		frontier = append(frontier[:bestIdx], append([]*Node{n.Left, n.Right}, frontier[bestIdx+1:]...)...)
	}
	return frontier, nil
}

func weight(b *softblock.Block) int64 {
	return b.Resources.LUTs + 100*b.Resources.DSPs + b.Resources.BRAMKb
}

// TotalCutBits sums the cut bandwidths of the internal nodes above the
// given frontier — the total inter-FPGA communication bandwidth of that
// deployment.
func (r *Result) TotalCutBits(frontier []*Node) int {
	inFrontier := map[*Node]bool{}
	for _, n := range frontier {
		inFrontier[n] = true
	}
	total := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if inFrontier[n] || n.IsLeaf() {
			return
		}
		total += n.CutBits
		walk(n.Left)
		walk(n.Right)
	}
	walk(r.Root)
	return total
}

// Walk visits every node of the partition tree, parents first.
func (r *Result) Walk(fn func(*Node, int)) {
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		fn(n, depth)
		if !n.IsLeaf() {
			rec(n.Left, depth+1)
			rec(n.Right, depth+1)
		}
	}
	rec(r.Root, 0)
}

// AllPieces lists every node in the tree (every deployable unit the
// compiler must map onto each HS abstraction).
func (r *Result) AllPieces() []*Node {
	out := make([]*Node, 0, 2*r.MaxPieces()-1)
	r.Walk(func(n *Node, _ int) { out = append(out, n) })
	return out
}
