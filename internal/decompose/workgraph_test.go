package decompose

import (
	"slices"
	"testing"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/softblock"
)

// TestWorkGraph drives the block graph directly: edges sum per pair,
// every edge list comes back ascending whatever order the edges arrived
// in, a merge sums the members' external edges and drops the edges among
// them, anchors never reach dataIds or topoOrder, and topoOrder breaks a
// cycle at the lowest id.
func TestWorkGraph(t *testing.T) {
	type arc struct{ a, b, bits int }
	cases := []struct {
		name    string
		anchors []bool // one per node: true makes it an anchor
		arcs    []arc
		merge   []int          // members contracted into node len(anchors), if any
		out, in map[int][]edge // expected lists after the merge
		bits    map[[2]int]int // expected edgeBits
		data    []int          // expected dataIds
		topo    []int          // expected topoOrder
	}{{
		name:    "merge sums external edges and drops internal ones",
		anchors: []bool{true, false, false, false},
		arcs:    []arc{{0, 1, 8}, {0, 2, 4}, {1, 2, 16}, {2, 1, 2}, {1, 3, 5}, {2, 3, 7}},
		merge:   []int{1, 2},
		out:     map[int][]edge{0: {{4, 12}}, 1: nil, 2: nil, 3: nil, 4: {{3, 12}}},
		in:      map[int][]edge{0: nil, 1: nil, 2: nil, 3: {{4, 12}}, 4: {{0, 12}}},
		bits:    map[[2]int]int{{0, 4}: 12, {4, 3}: 12, {1, 2}: 0, {4, 4}: 0},
		data:    []int{3, 4},
		topo:    []int{4, 3},
	}, {
		name:    "lists ascend whatever the arrival order; repeats sum",
		anchors: []bool{false, false, false, false, false},
		arcs:    []arc{{0, 4, 1}, {0, 2, 1}, {0, 3, 1}, {0, 1, 1}, {0, 2, 5}, {4, 1, 3}, {3, 1, 3}, {2, 1, 3}, {1, 1, 9}},
		out:     map[int][]edge{0: {{1, 1}, {2, 6}, {3, 1}, {4, 1}}, 1: nil},
		in:      map[int][]edge{1: {{0, 1}, {2, 3}, {3, 3}, {4, 3}}, 0: nil},
		bits:    map[[2]int]int{{0, 2}: 6, {2, 0}: 0, {1, 1}: 0},
		data:    []int{0, 1, 2, 3, 4},
		topo:    []int{0, 4, 3, 2, 1},
	}, {
		name:    "anchors stay out of dataIds and topoOrder",
		anchors: []bool{false, true, false, true, false},
		arcs:    []arc{{1, 0, 4}, {0, 3, 4}, {3, 2, 4}, {2, 4, 4}, {4, 1, 4}},
		merge:   []int{2, 4},
		out:     map[int][]edge{1: {{0, 4}}, 3: {{5, 4}}, 5: {{1, 4}}},
		in:      map[int][]edge{1: {{5, 4}}, 5: {{3, 4}}},
		data:    []int{0, 5},
		topo:    []int{5, 0},
	}, {
		name:    "a cycle breaks at the lowest id",
		anchors: []bool{false, false, false},
		arcs:    []arc{{2, 0, 1}, {1, 2, 1}, {0, 1, 1}},
		data:    []int{0, 1, 2},
		topo:    []int{0, 1, 2},
	}, {
		name:    "a merged cycle keeps its external edges only",
		anchors: []bool{false, false, false, false},
		arcs:    []arc{{0, 1, 2}, {1, 2, 2}, {2, 1, 2}, {2, 3, 2}, {3, 0, 2}},
		merge:   []int{1, 2},
		out:     map[int][]edge{0: {{4, 2}}, 3: {{0, 2}}, 4: {{3, 2}}},
		in:      map[int][]edge{0: {{3, 2}}, 3: {{4, 2}}, 4: {{0, 2}}},
		data:    []int{0, 3, 4},
		topo:    []int{0, 4, 3},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newWorkGraph(len(tc.anchors), 1) // a short backing must grow
			for i, anchor := range tc.anchors {
				if anchor {
					g.addAnchor()
				} else {
					g.addNode(softblock.NewLeaf("b", "m", "", resource.Vector{}, 1, 1))
				}
				if g.isAnchor(i) != anchor {
					t.Fatalf("node %d: anchor %v", i, !anchor)
				}
			}
			for _, a := range tc.arcs {
				g.addEdge(a.a, a.b, a.bits)
			}
			if tc.merge != nil {
				if id := g.merge(tc.merge, softblock.NewLeaf("p", "m", "", resource.Vector{}, 1, 1)); id != len(tc.anchors) {
					t.Fatalf("merge made node %d, want %d", id, len(tc.anchors))
				}
			}
			for id, want := range tc.out {
				if got := g.consumers(id); !slices.Equal(got, want) {
					t.Errorf("node %d: out %v, want %v", id, got, want)
				}
			}
			for id, want := range tc.in {
				if got := g.producers(id); !slices.Equal(got, want) {
					t.Errorf("node %d: in %v, want %v", id, got, want)
				}
			}
			for pair, want := range tc.bits {
				if got := g.edgeBits(pair[0], pair[1]); got != want {
					t.Errorf("edgeBits%v = %d, want %d", pair, got, want)
				}
			}
			if got := g.dataIds(); !slices.Equal(got, tc.data) || g.dataSize() != len(tc.data) {
				t.Errorf("dataIds %v (size %d), want %v", got, g.dataSize(), tc.data)
			}
			if got := g.topoOrder(); !slices.Equal(got, tc.topo) {
				t.Errorf("topoOrder %v, want %v", got, tc.topo)
			}
			for id := range g.nodes {
				for _, list := range [][]edge{g.consumers(id), g.producers(id)} {
					if !slices.IsSortedFunc(list, func(x, y edge) int { return x.node - y.node }) {
						t.Errorf("node %d: list %v not ascending", id, list)
					}
				}
			}
		})
	}
}
