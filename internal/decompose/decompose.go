// Package decompose implements the decomposing step of the paper's mapping
// process (§2.2.1): an AS ISA-based accelerator, given as RTL, is split
// into a control-path soft block and a data-path soft-block tree whose
// internal nodes are the two primitive parallel patterns.
//
// The tool follows the paper's bottom-up flow in five steps:
//
//  1. Build block graph — parse the RTL, extract basic modules, keep the
//     ones on the data path (the designer marks control-path module names,
//     §2.2.1), connect them by bit width.
//  2. Extract intra-block data parallelism — equivalence checking inside a
//     leaf finds identical lanes (e.g. a module that is an array of
//     identical primitives over disjoint port slices).
//  3. Identify inter-block data parallelism — three merge cases over
//     sibling inputs (Fig. 4b).
//  4. Identify pipeline parallelism — pair up equal-count data-parallel
//     stages (Fig. 4c) and contract producer/consumer chains.
//  5. Iterate 3 and 4 to a fixpoint.
//
// Because soft blocks carry no resource constraint, no capacity checks
// appear anywhere in this package — that is the point of the indirection
// layer.
package decompose

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
)

// Options configures the decomposer.
type Options struct {
	// ControlModules are RTL module names the system designer marks as the
	// control path (§2.2.1: "we need system designers' assistance to mark
	// the control path by providing the corresponding RTL module name").
	// Matching is by module name, not instance path.
	ControlModules []string
	// Seed drives the random-simulation equivalence checker.
	Seed int64
}

// Stats reports what each decomposition step did, for the compilation-
// overhead evaluation (§4.3).
type Stats struct {
	BasicInstances  int // block-graph nodes before merging
	ControlModules  int // basic instances assigned to the control block
	IntraBlockSplit int // leaves split by step 2
	DataMerges      int // step 3 merges
	PipeMerges      int // step 4 merges (pairing + chain contraction)
	Iterations      int // step 5 outer iterations
}

// Result is a decomposed accelerator plus bookkeeping.
type Result struct {
	Accelerator *softblock.Accelerator
	// Classes maps each elaborated module key to its equivalence-class
	// representative key. Leaves carry representative keys so that
	// interchangeable modules compare equal by signature.
	Classes map[string]string
	Stats   Stats
	// EquivStats reports the equivalence oracle's query/hit/miss counters
	// accumulated over the whole decomposition.
	EquivStats rtl.EquivStats
}

// ErrEmptyDataPath is returned when every basic module was marked control.
var ErrEmptyDataPath = errors.New("decompose: no basic modules remain on the data path")

// Decompose runs the five-step flow on design d elaborated at (top,
// params).
func Decompose(d *rtl.Design, top string, params map[string]uint64, opts Options) (*Result, error) {
	em, err := d.Elaborate(top, params)
	if err != nil {
		return nil, err
	}
	bg := d.BasicGraph(em)
	dec := &decomposer{
		d:       d,
		opts:    opts,
		checker: rtl.NewEquivChecker(d, opts.Seed),
		classes: map[string]string{},
	}
	return dec.run(top, bg)
}

type decomposer struct {
	d       *rtl.Design
	opts    Options
	checker *rtl.EquivChecker
	// classes maps module key -> representative key.
	classes map[string]string
	// reps holds one elaboration per class, ascending by key.
	reps   []*rtl.ElabModule
	nextID int
	stats  Stats
}

// blockID returns the next id, sb0, sb1, ..., in one allocation.
func (dec *decomposer) blockID() string {
	var buf [24]byte
	id := string(strconv.AppendInt(append(buf[:0], "sb"...), int64(dec.nextID), 10))
	dec.nextID++
	return id
}

// classKey canonicalizes a module to its equivalence-class representative.
func (dec *decomposer) classKey(emod *rtl.ElabModule) (string, error) {
	if rep, ok := dec.classes[emod.Key]; ok {
		return rep, nil
	}
	for _, rep := range dec.reps {
		eq, err := dec.checker.Equivalent(emod, rep)
		if err != nil {
			return "", err
		}
		if eq {
			dec.classes[emod.Key] = rep.Key
			return rep.Key, nil
		}
	}
	dec.classes[emod.Key] = emod.Key
	i, _ := slices.BinarySearchFunc(dec.reps, emod.Key, func(rep *rtl.ElabModule, key string) int {
		return strings.Compare(rep.Key, key)
	})
	dec.reps = slices.Insert(dec.reps, i, emod)
	return emod.Key, nil
}

func (dec *decomposer) isControlModule(name string) bool {
	for _, c := range dec.opts.ControlModules {
		if c == name {
			return true
		}
	}
	return false
}

func (dec *decomposer) run(top string, bg *rtl.BasicGraph) (*Result, error) {
	dec.stats.BasicInstances = len(bg.Insts)

	// Step 0 (Fig. 3a): split control and data path at the top of the
	// design. All control-marked basic instances collapse into one
	// unmodified soft block.
	var controlRes resource.Vector
	var controlKeys []string
	controlBits := [2]int{}
	// Node 0 is the boundary and node i+1 basic instance i, so a basic
	// edge's end e maps to node e+1 (rtl.Boundary is -1).
	g := newWorkGraph(len(bg.Insts)+1, len(bg.Edges))
	g.addAnchor()

	for _, bi := range bg.Insts {
		res, err := dec.d.EstimateResources(bi.Elab)
		if err != nil {
			return nil, err
		}
		inBits, outBits := portBits(bi.Elab)
		if dec.isControlModule(bi.Elab.Module.Name) {
			controlRes = controlRes.Add(res)
			controlKeys = append(controlKeys, bi.Elab.Key)
			controlBits[0] += inBits
			controlBits[1] += outBits
			dec.stats.ControlModules++
			// Control instances stay in the graph as anchors: parallel
			// data blocks that all feed (or are fed by) the control path
			// are siblings through these pseudo-nodes.
			g.addAnchor()
			continue
		}
		rep, err := dec.classKey(bi.Elab)
		if err != nil {
			return nil, err
		}
		g.addNode(softblock.NewLeaf(dec.blockID(), rep, bi.Path, res, inBits, outBits))
	}
	if g.dataSize() == 0 {
		return nil, ErrEmptyDataPath
	}
	for _, e := range bg.Edges {
		// Ignore 1-bit boundary fan-out (clock/reset distribution) so it
		// does not tie every block to the boundary anchor.
		if (e.From == rtl.Boundary || e.To == rtl.Boundary) && e.Bits <= 1 {
			continue
		}
		g.addEdge(e.From+1, e.To+1, e.Bits)
	}

	// Step 2: intra-block data parallelism inside each leaf.
	for _, id := range g.dataIds() {
		split, err := dec.intraBlockSplit(g.block(id), bg)
		if err != nil {
			return nil, err
		}
		if split != nil {
			g.nodes[id].block = split
			dec.stats.IntraBlockSplit++
		}
	}

	// Steps 3-5: iterate inter-block data parallelism and pipeline
	// parallelism to a fixpoint.
	for {
		dec.stats.Iterations++
		merged := dec.toFixpoint(g, (*decomposer).dataParallelOnce, &dec.stats.DataMerges)
		merged = dec.toFixpoint(g, (*decomposer).pipelinePairsOnce, &dec.stats.PipeMerges) || merged
		merged = dec.toFixpoint(g, (*decomposer).chainOnce, &dec.stats.PipeMerges) || merged
		if !merged {
			break
		}
	}

	root := dec.finalize(g)

	ctrlKey := "ctrl:unmarked"
	if len(controlKeys) > 0 {
		sort.Strings(controlKeys)
		ctrlKey = "ctrl:" + strings.Join(controlKeys, "+")
	}
	control := softblock.NewLeaf(dec.blockID(), ctrlKey, "", controlRes, controlBits[0], controlBits[1])

	acc := &softblock.Accelerator{Name: top, Control: control, Data: root}
	if err := acc.Validate(); err != nil {
		return nil, fmt.Errorf("decompose: produced invalid tree: %w", err)
	}
	return &Result{
		Accelerator: acc,
		Classes:     dec.classes,
		Stats:       dec.stats,
		EquivStats:  dec.checker.Stats(),
	}, nil
}

// portBits sums input and output port widths, excluding clock/reset-like
// scalars.
func portBits(em *rtl.ElabModule) (in, out int) {
	for i, p := range em.Module.Ports {
		w := em.PortWidths[i]
		if w == 1 && isClockResetName(p.Name) {
			continue
		}
		switch p.Dir {
		case rtl.Input:
			in += w
		case rtl.Output:
			out += w
		}
	}
	return in, out
}

func isClockResetName(name string) bool {
	n := strings.ToLower(name)
	return n == "clk" || n == "clock" || n == "rst" || n == "reset" ||
		strings.HasSuffix(n, "_clk") || strings.HasSuffix(n, "_rst")
}

// intraBlockSplit implements step 2 for one leaf: if the basic module is a
// pure array of K >= 2 identical primitive cells whose connections touch
// disjoint slices of the module ports, the leaf splits into a data-parallel
// block of K lanes. Returns nil when no parallelism is found.
func (dec *decomposer) intraBlockSplit(b *softblock.Block, bg *rtl.BasicGraph) (*softblock.Block, error) {
	if b.Kind != softblock.Leaf {
		return nil, nil
	}
	var em *rtl.ElabModule
	for _, bi := range bg.Insts {
		if bi.Path == b.Path {
			em = bi.Elab
			break
		}
	}
	if em == nil {
		return nil, nil
	}
	m := em.Module
	if len(m.Assigns) > 0 || len(m.Alwayses) > 0 || len(m.Instances) < 2 {
		return nil, nil
	}
	// All children must be the same primitive.
	first := m.Instances[0].ModuleName
	if !dec.d.IsPrimitive(first) {
		return nil, nil
	}
	for _, inst := range m.Instances {
		if inst.ModuleName != first {
			return nil, nil
		}
	}
	// Connections must not share any identifier (disjoint lanes). A shared
	// scalar clock is allowed.
	seen := map[string]bool{}
	for _, inst := range m.Instances {
		for _, c := range inst.Conns {
			e := c.Expr
			if e == nil {
				continue
			}
			for _, name := range identsOf(e) {
				if isClockResetName(name) {
					continue
				}
				laneKey := name + "/" + e.String()
				if seen[laneKey] {
					return nil, nil
				}
				seen[laneKey] = true
			}
		}
	}
	k := len(m.Instances)
	lanes := make([]*softblock.Block, k)
	laneRes := b.Resources.Div(int64(k))
	for i := range lanes {
		lanes[i] = softblock.NewLeaf(
			dec.blockID(),
			b.ModuleKey+"#lane",
			fmt.Sprintf("%s[%d]", b.Path, i),
			laneRes,
			b.InBits/k, b.OutBits/k,
		)
	}
	parent := softblock.NewDataParallel(dec.blockID(), lanes)
	return parent, nil
}

func identsOf(e rtl.Expr) []string {
	var out []string
	var walk func(x rtl.Expr)
	walk = func(x rtl.Expr) {
		switch v := x.(type) {
		case *rtl.Ident:
			out = append(out, v.Name)
		case *rtl.Unary:
			walk(v.X)
		case *rtl.Binary:
			walk(v.L)
			walk(v.R)
		case *rtl.Cond:
			walk(v.If)
			walk(v.Then)
			walk(v.Else)
		case *rtl.Index:
			walk(v.X)
			walk(v.At)
		case *rtl.Slice:
			walk(v.X)
			walk(v.Msb)
			walk(v.Lsb)
		case *rtl.Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case *rtl.Repl:
			walk(v.X)
		}
	}
	walk(e)
	return out
}

// interchangeable reports whether two block subtrees are interchangeable
// copies. Leaf module keys are already canonicalized to equivalence-class
// representatives, so their shape decides.
func interchangeable(a, b *softblock.Block) bool {
	return softblock.SameShape(a, b)
}

// toFixpoint applies once until it merges nothing, adds the merges to
// count, and reports whether anything merged.
func (dec *decomposer) toFixpoint(g *workGraph, once func(*decomposer, *workGraph) bool, count *int) bool {
	n := 0
	for once(dec, g) {
		n++
	}
	*count += n
	return n > 0
}

// dataParallelOnce implements step 3 (Fig. 4b). For every block c, each
// pair of its producers (p1, p2) is examined:
//
//	case 1: p1 and p2 are interchangeable           -> new data parent
//	case 2: p1 is data-parallel, p2 matches a child -> fold p2 into p1
//	case 3: both data-parallel with matching children -> concatenate
//
// One merge is applied per call; the caller iterates to fixpoint. Returns
// whether anything merged.
func (dec *decomposer) dataParallelOnce(g *workGraph) bool {
	for c := range g.nodes { // a merged-away node has no edges left
		// Examine producers of a common consumer (the paper's formulation)
		// and, symmetrically, consumers of a common producer — parallel
		// lanes typically share both their source and their sink.
		if dec.mergeSiblings(g, g.producers(c)) {
			return true
		}
		if dec.mergeSiblings(g, g.consumers(c)) {
			return true
		}
	}
	return false
}

// mergeSiblings applies the three Fig. 4b cases to one sibling set,
// performing at most one merge.
func (dec *decomposer) mergeSiblings(g *workGraph, sibs []edge) bool {
	for i := 0; i < len(sibs); i++ {
		for j := i + 1; j < len(sibs); j++ {
			p1, p2 := sibs[i].node, sibs[j].node
			if g.isAnchor(p1) || g.isAnchor(p2) {
				continue
			}
			// Truly parallel lanes are disjoint: a connection between the
			// candidates means producer/consumer, not data parallelism.
			if g.edgeBits(p1, p2) > 0 || g.edgeBits(p2, p1) > 0 {
				continue
			}
			b1, b2 := g.block(p1), g.block(p2)
			var kids []*softblock.Block
			switch {
			case b1.Kind == softblock.DataParallel && b2.Kind == softblock.DataParallel &&
				len(b1.Children) > 0 && len(b2.Children) > 0 &&
				interchangeable(b1.Children[0], b2.Children[0]):
				// case 3: concatenate children under one data block.
				kids = slices.Concat(b1.Children, b2.Children)
			case b1.Kind == softblock.DataParallel && len(b1.Children) > 0 &&
				interchangeable(b1.Children[0], b2):
				// case 2: fold b2 into b1.
				kids = append(slices.Clip(b1.Children), b2)
			case b2.Kind == softblock.DataParallel && len(b2.Children) > 0 &&
				interchangeable(b2.Children[0], b1):
				// case 2 mirrored.
				kids = append([]*softblock.Block{b1}, b2.Children...)
			case b1.Kind != softblock.DataParallel && b2.Kind != softblock.DataParallel &&
				interchangeable(b1, b2):
				// case 1: two identical inputs.
				kids = []*softblock.Block{b1, b2}
			default:
				continue
			}
			g.merge([]int{p1, p2}, softblock.NewDataParallel(dec.blockID(), kids))
			return true
		}
	}
	return false
}

// pipelinePairsOnce implements step 4 (Fig. 4c): a data-parallel producer
// A feeding a data-parallel consumer B with the same child count regroups
// into data-parallel pairs of pipelines, one merge per call.
func (dec *decomposer) pipelinePairsOnce(g *workGraph) bool {
	for _, a := range g.dataIds() {
		ba := g.block(a)
		if ba.Kind != softblock.DataParallel {
			continue
		}
		for _, e := range g.consumers(a) {
			b := e.node
			if g.isAnchor(b) {
				continue
			}
			bb := g.block(b)
			if bb.Kind != softblock.DataParallel {
				continue
			}
			if len(ba.Children) != len(bb.Children) || len(ba.Children) == 0 {
				continue
			}
			// Only safe when B's sole producer among data nodes is A and
			// A's sole consumer is B — otherwise pairing changes semantics.
			if len(g.consumers(a)) != 1 || len(g.producers(b)) != 1 {
				continue
			}
			k := len(ba.Children)
			perLane := g.edgeBits(a, b) / k
			pairs := make([]*softblock.Block, k)
			for i := 0; i < k; i++ {
				pairs[i] = joinPipeline(dec.blockID(), ba.Children[i], bb.Children[i], perLane)
			}
			parent := softblock.NewDataParallel(dec.blockID(), pairs)
			g.merge([]int{a, b}, parent)
			return true
		}
	}
	return false
}

// joinPipeline builds a pipeline from producer x and consumer y connected
// with bits, flattening nested pipelines so chains stay one level deep.
func joinPipeline(id string, x, y *softblock.Block, bits int) *softblock.Block {
	n := stages(x) + stages(y)
	children := make([]*softblock.Block, 0, n)
	stageBits := make([]int, 0, n-1)
	appendBlock := func(blk *softblock.Block) {
		if blk.Kind == softblock.Pipeline {
			children = append(children, blk.Children...)
			stageBits = append(stageBits, blk.StageBits...)
			return
		}
		children = append(children, blk)
	}
	appendBlock(x)
	stageBits = append(stageBits, bits)
	appendBlock(y)
	return softblock.NewPipeline(id, children, stageBits)
}

// stages counts the children joinPipeline takes from blk.
func stages(blk *softblock.Block) int {
	if blk.Kind == softblock.Pipeline {
		return len(blk.Children)
	}
	return 1
}

// chainOnce contracts a linear producer/consumer chain into a pipeline
// block: A -> B where B is A's only consumer and A is B's only producer.
func (dec *decomposer) chainOnce(g *workGraph) bool {
	if g.dataSize() < 2 {
		return false
	}
	for _, a := range g.dataIds() {
		cons := g.consumers(a)
		if len(cons) != 1 {
			continue
		}
		b := cons[0].node
		if g.isAnchor(b) || len(g.producers(b)) != 1 {
			continue
		}
		parent := joinPipeline(dec.blockID(), g.block(a), g.block(b), cons[0].bits)
		g.merge([]int{a, b}, parent)
		return true
	}
	return false
}

// finalize reduces whatever remains to a single root. Ideally one node is
// left; a residual DAG is wrapped in a pipeline over its topological order
// (the general composition), with stage bandwidths read from the remaining
// edges.
func (dec *decomposer) finalize(g *workGraph) *softblock.Block {
	if ids := g.dataIds(); len(ids) == 1 {
		return g.block(ids[0])
	}
	order := g.topoOrder()
	children := make([]*softblock.Block, len(order))
	for i, id := range order {
		children[i] = g.block(id)
	}
	stageBits := make([]int, len(order)-1)
	for i := 0; i+1 < len(order); i++ {
		stageBits[i] = g.edgeBits(order[i], order[i+1])
	}
	return softblock.NewPipeline(dec.blockID(), children, stageBits)
}
