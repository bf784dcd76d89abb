package decompose

import (
	"cmp"
	"slices"

	"mlvfpga/internal/softblock"
)

// workGraph is the mutable block graph the bottom-up decomposer operates
// on: nodes hold soft-block (sub)trees, directed edges carry connection bit
// widths. Merging nodes under a new parent block contracts them into one
// node that inherits the union of their external edges.
//
// Node ids are dense: a node's id is its index in nodes, and a merge
// appends the contracted node, so ascending ids are insertion order.
// Every node's edge lists are kept ascending by neighbour and are cut
// from one backing array, so queries return them without allocating.
type workGraph struct {
	nodes []workNode
	edges []edge // backing the edge lists are cut from
	data  int    // live non-anchor nodes
	ids   []int  // dataIds' buffer
}

type workNode struct {
	block   *softblock.Block // nil for an anchor or a merged-away node
	anchor  bool             // pseudo-node: control block, design boundary
	dead    bool             // contracted into a later node
	out, in []edge           // ascending by edge.node
}

// edge is one end of a connection: the neighbour and the bits it carries.
type edge struct{ node, bits int }

// newWorkGraph sizes a graph for n nodes and e edges; merges add at most
// n-1 nodes. An edge sits in two lists that grow by doubling, and every
// merge cuts lists for its node: eight slots an edge hold the generated
// accelerators at every tile count, and a short estimate only costs a
// fresh backing array.
func newWorkGraph(n, e int) *workGraph {
	return &workGraph{
		nodes: make([]workNode, 0, 2*n),
		edges: make([]edge, 0, 8*e),
		ids:   make([]int, 0, n),
	}
}

// addNode inserts a block and returns its node id.
func (g *workGraph) addNode(b *softblock.Block) int {
	g.nodes = append(g.nodes, workNode{block: b})
	g.data++
	return len(g.nodes) - 1
}

// addAnchor inserts a pseudo-node that participates in connectivity but is
// never merged and never appears in the result (the control-path block and
// the design boundary).
func (g *workGraph) addAnchor() int {
	g.nodes = append(g.nodes, workNode{anchor: true})
	return len(g.nodes) - 1
}

// isAnchor reports whether id is a pseudo-node.
func (g *workGraph) isAnchor(id int) bool { return g.nodes[id].anchor }

// isData reports whether id is a live, non-anchor node.
func (g *workGraph) isData(id int) bool { return !g.nodes[id].anchor && !g.nodes[id].dead }

// block returns the soft block node id holds.
func (g *workGraph) block(id int) *softblock.Block { return g.nodes[id].block }

// dataIds returns the live non-anchor node ids in ascending order, in a
// buffer the graph reuses: the slice is valid until the next call.
func (g *workGraph) dataIds() []int {
	g.ids = g.ids[:0]
	for id := range g.nodes {
		if g.isData(id) {
			g.ids = append(g.ids, id)
		}
	}
	return g.ids
}

// dataSize counts live non-anchor nodes.
func (g *workGraph) dataSize() int { return g.data }

// cut returns an empty list of capacity n from the edge backing.
func (g *workGraph) cut(n int) []edge {
	if cap(g.edges)-len(g.edges) < n {
		g.edges = make([]edge, 0, max(2*cap(g.edges), n))
	}
	l := len(g.edges)
	g.edges = g.edges[:l+n]
	return g.edges[l : l : l+n]
}

// link adds bits to node's entry in the ascending list es, inserting the
// entry if absent. A full list moves to a cut of twice its size.
func (g *workGraph) link(es []edge, node, bits int) []edge {
	i, found := slices.BinarySearchFunc(es, node, byNode)
	if found {
		es[i].bits += bits
		return es
	}
	if len(es) == cap(es) {
		es = append(g.cut(max(2*len(es), 2)), es...)
	}
	return slices.Insert(es, i, edge{node, bits})
}

func byNode(e edge, node int) int { return cmp.Compare(e.node, node) }

// addEdge accumulates bits on the a -> b edge.
func (g *workGraph) addEdge(a, b, bits int) {
	if a == b {
		return
	}
	g.nodes[a].out = g.link(g.nodes[a].out, b, bits)
	g.nodes[b].in = g.link(g.nodes[b].in, a, bits)
}

// edgeBits returns the bits on a -> b.
func (g *workGraph) edgeBits(a, b int) int {
	out := g.nodes[a].out
	if i, found := slices.BinarySearchFunc(out, b, byNode); found {
		return out[i].bits
	}
	return 0
}

// consumers returns the nodes id feeds, ascending. The list is the
// graph's own: it is valid until the next merge.
func (g *workGraph) consumers(id int) []edge { return g.nodes[id].out }

// producers returns the nodes feeding id, ascending, valid until the
// next merge.
func (g *workGraph) producers(id int) []edge { return g.nodes[id].in }

// merge contracts the member nodes into a single node holding parent.
// External edges are inherited (bits summed); edges among members vanish.
func (g *workGraph) merge(members []int, parent *softblock.Block) int {
	id := g.addNode(parent)
	var nOut, nIn int
	for _, m := range members {
		nOut += len(g.nodes[m].out)
		nIn += len(g.nodes[m].in)
	}
	out, in := g.cut(nOut), g.cut(nIn)
	for _, m := range members {
		for _, e := range g.nodes[m].out {
			if !slices.Contains(members, e.node) {
				out = g.link(out, e.node, e.bits)
			}
		}
		for _, e := range g.nodes[m].in {
			if !slices.Contains(members, e.node) {
				in = g.link(in, e.node, e.bits)
			}
		}
	}
	// Each neighbour's list loses its member entries and gains id, the
	// largest id yet, at its end: it stays ascending and never grows.
	for _, e := range out {
		g.nodes[e.node].in = rewire(g.nodes[e.node].in, members, e.bits, id)
	}
	for _, e := range in {
		g.nodes[e.node].out = rewire(g.nodes[e.node].out, members, e.bits, id)
	}
	g.nodes[id].out, g.nodes[id].in = out, in
	for _, m := range members {
		g.nodes[m] = workNode{dead: true}
	}
	g.data -= len(members)
	return id
}

// rewire drops the members' entries from es and appends id carrying bits.
func rewire(es []edge, members []int, bits, id int) []edge {
	es = slices.DeleteFunc(es, func(e edge) bool { return slices.Contains(members, e.node) })
	return append(es, edge{id, bits})
}

// topoOrder returns the non-anchor nodes in a topological order; back
// edges (cycles) are broken by visiting unvisited nodes in id order.
func (g *workGraph) topoOrder() []int {
	const onStack, visited = 1, 2
	state := make([]uint8, len(g.nodes))
	order := make([]int, 0, g.data)
	var visit func(id int)
	visit = func(id int) {
		if state[id] != 0 || g.isAnchor(id) {
			return
		}
		state[id] = onStack
		for _, e := range g.consumers(id) {
			visit(e.node)
		}
		state[id] = visited
		order = append(order, id)
	}
	for _, id := range g.dataIds() {
		visit(id)
	}
	// Reverse post-order.
	slices.Reverse(order)
	return order
}
