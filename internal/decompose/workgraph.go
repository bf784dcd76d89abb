package decompose

import (
	"fmt"
	"slices"
	"sort"

	"mlvfpga/internal/softblock"
)

// workGraph is the mutable block graph the bottom-up decomposer operates
// on: nodes hold soft-block (sub)trees, directed edges carry connection bit
// widths. Merging nodes under a new parent block contracts them into one
// node that inherits the union of their external edges.
type workGraph struct {
	nodes  map[int]*softblock.Block
	out    map[int]map[int]int // out[a][b] = bits a -> b
	in     map[int]map[int]int // in[b][a] = bits a -> b
	anchor map[int]bool        // pseudo-nodes: control blocks, design boundary
	nextID int
}

// newWorkGraph sizes a graph for n nodes; merges add more.
func newWorkGraph(n int) *workGraph {
	return &workGraph{
		nodes:  make(map[int]*softblock.Block, n),
		out:    make(map[int]map[int]int, n),
		in:     make(map[int]map[int]int, n),
		anchor: map[int]bool{},
	}
}

// addNode inserts a block and returns its node id.
func (g *workGraph) addNode(b *softblock.Block) int {
	id := g.nextID
	g.nextID++
	g.nodes[id] = b
	g.out[id] = map[int]int{}
	g.in[id] = map[int]int{}
	return id
}

// addAnchor inserts a pseudo-node that participates in connectivity but is
// never merged and never appears in the result (the control-path block and
// the design boundary).
func (g *workGraph) addAnchor() int {
	id := g.addNode(nil)
	g.anchor[id] = true
	return id
}

// isAnchor reports whether id is a pseudo-node.
func (g *workGraph) isAnchor(id int) bool { return g.anchor[id] }

// dataIds returns the non-anchor node ids in ascending order.
func (g *workGraph) dataIds() []int {
	return slices.DeleteFunc(g.ids(), g.isAnchor)
}

// dataSize counts non-anchor nodes.
func (g *workGraph) dataSize() int {
	n := 0
	for id := range g.nodes {
		if !g.anchor[id] {
			n++
		}
	}
	return n
}

// addEdge accumulates bits on the a -> b edge.
func (g *workGraph) addEdge(a, b, bits int) {
	if a == b {
		return
	}
	g.out[a][b] += bits
	g.in[b][a] += bits
}

// ids returns node ids in ascending order for deterministic iteration.
func (g *workGraph) ids() []int {
	out := make([]int, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// edgeBits returns the bits on a -> b.
func (g *workGraph) edgeBits(a, b int) int { return g.out[a][b] }

// merge contracts the member nodes into a single node holding parent.
// External edges are inherited (bits summed); edges among members vanish.
func (g *workGraph) merge(members []int, parent *softblock.Block) int {
	id := g.addNode(parent)
	for _, m := range members {
		for to, bits := range g.out[m] {
			if !slices.Contains(members, to) {
				g.addEdge(id, to, bits)
			}
		}
		for from, bits := range g.in[m] {
			if !slices.Contains(members, from) {
				g.addEdge(from, id, bits)
			}
		}
	}
	for _, m := range members {
		g.removeNode(m)
	}
	return id
}

func (g *workGraph) removeNode(id int) {
	for to := range g.out[id] {
		delete(g.in[to], id)
	}
	for from := range g.in[id] {
		delete(g.out[from], id)
	}
	delete(g.out, id)
	delete(g.in, id)
	delete(g.nodes, id)
}

// consumers returns the ids this node feeds, ascending.
func (g *workGraph) consumers(id int) []int {
	out := make([]int, 0, len(g.out[id]))
	for to := range g.out[id] {
		out = append(out, to)
	}
	sort.Ints(out)
	return out
}

// producers returns the ids feeding this node, ascending.
func (g *workGraph) producers(id int) []int {
	out := make([]int, 0, len(g.in[id]))
	for from := range g.in[id] {
		out = append(out, from)
	}
	sort.Ints(out)
	return out
}

// topoOrder returns the non-anchor nodes in a topological order; back
// edges (cycles) are broken by visiting unvisited nodes in id order.
func (g *workGraph) topoOrder() []int {
	visited := map[int]bool{}
	onStack := map[int]bool{}
	var order []int
	var visit func(id int)
	visit = func(id int) {
		if visited[id] || onStack[id] || g.anchor[id] {
			return
		}
		onStack[id] = true
		for _, to := range g.consumers(id) {
			visit(to)
		}
		onStack[id] = false
		visited[id] = true
		order = append(order, id)
	}
	for _, id := range g.dataIds() {
		visit(id)
	}
	// Reverse post-order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func (g *workGraph) String() string {
	s := fmt.Sprintf("workGraph{%d nodes}\n", len(g.nodes))
	for _, id := range g.ids() {
		if g.anchor[id] {
			s += fmt.Sprintf("  [%d] anchor\n", id)
		} else {
			s += fmt.Sprintf("  [%d] %s %s\n", id, g.nodes[id].Kind, g.nodes[id].ID)
		}
		for to, bits := range g.out[id] {
			s += fmt.Sprintf("    -> %d (%d bits)\n", to, bits)
		}
	}
	return s
}
