package partition

import (
	"errors"
	"fmt"
	"testing"

	"mlvfpga/internal/resource"
	"mlvfpga/internal/softblock"
)

// treeDecoder derives an arbitrary (but always structurally valid)
// soft-block tree from fuzz bytes: each byte chooses leaf vs pipeline vs
// data-parallel, child counts, resource weights and stage bandwidths.
// Past the end of the input it reads zeros, so every prefix decodes.
type treeDecoder struct {
	data []byte
	pos  int
	next int
}

func (d *treeDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *treeDecoder) id() string {
	d.next++
	return fmt.Sprintf("n%d", d.next)
}

func (d *treeDecoder) leaf() *softblock.Block {
	res := resource.Vector{
		LUTs:   int64(1 + d.byte()%100),
		DSPs:   int64(d.byte() % 8),
		BRAMKb: int64(d.byte() % 16),
	}
	key := fmt.Sprintf("mod%d", d.byte()%4)
	in := 1 + int(d.byte()%64)
	out := 1 + int(d.byte()%64)
	return softblock.NewLeaf(d.id(), key, "top.u", res, in, out)
}

func (d *treeDecoder) build(depth int) *softblock.Block {
	sel := d.byte()
	if depth >= 3 || sel%4 == 0 {
		return d.leaf()
	}
	n := 2 + int(d.byte()%3)
	if sel%2 == 0 {
		kids := make([]*softblock.Block, n)
		for i := range kids {
			kids[i] = d.build(depth + 1)
		}
		bits := make([]int, n-1)
		for i := range bits {
			bits[i] = 1 + int(d.byte()%200)
		}
		return softblock.NewPipeline(d.id(), kids, bits)
	}
	// Data-parallel children must be interchangeable: clone one prototype
	// and re-ID the copies.
	proto := d.build(depth + 1)
	kids := []*softblock.Block{proto}
	for i := 1; i < n; i++ {
		c := new(softblock.Slab).Clone(proto)
		d.reID(c)
		kids = append(kids, c)
	}
	return softblock.NewDataParallel(d.id(), kids)
}

// reID gives every block of a cloned subtree a fresh ID, parents first.
func (d *treeDecoder) reID(b *softblock.Block) {
	b.ID = d.id()
	for _, c := range b.Children {
		d.reID(c)
	}
}

// FuzzBisect drives Partition over arbitrary soft-block trees and checks
// the shard ladder's structural guarantees: rungs are consecutive with
// monotonically non-decreasing cut bandwidth, every frontier's shards
// cover exactly the tree's leaves in order (no lost, duplicated or empty
// shard), and shard resources conserve the root's roll-up.
func FuzzBisect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 9, 1, 40, 7, 2, 120, 0, 60, 3, 1, 14, 200, 90})
	f.Add([]byte{4, 2, 0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{6, 4, 6, 4, 6, 4, 255, 254, 253, 1, 1, 1, 1, 30, 31, 32, 33, 34, 35, 36, 37, 38})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &treeDecoder{data: data}
		root := d.build(0)
		ctrl := softblock.NewLeaf("ctrl", "ctrl", "top.ctrl", resource.Vector{}, 0, 0)
		if err := (&softblock.Accelerator{Control: ctrl, Data: root}).Validate(); err != nil {
			t.Fatalf("generator built an invalid tree: %v\n%s", err, root)
		}
		iterations := int(d.byte() % 4)
		p, err := Partition(root, iterations)
		if err != nil {
			t.Fatalf("Partition(%d iterations): %v\n%s", iterations, err, root)
		}
		max := p.MaxPieces()
		if max < 1 || max > root.NumLeaves() {
			t.Fatalf("MaxPieces %d outside [1, %d leaves]", max, root.NumLeaves())
		}

		ladder := p.Ladder()
		if len(ladder) != max {
			t.Fatalf("ladder has %d rungs, MaxPieces is %d", len(ladder), max)
		}
		prevBits := -1
		for i, rung := range ladder {
			if rung.Pieces != i+1 {
				t.Fatalf("rung %d deploys %d pieces, ladder must be consecutive", i, rung.Pieces)
			}
			if rung.CutBits < prevBits {
				t.Fatalf("ladder cut bits decreased: %d pieces cost %d, %d pieces cost %d",
					rung.Pieces-1, prevBits, rung.Pieces, rung.CutBits)
			}
			prevBits = rung.CutBits
		}

		rootLeaves := leaves(root)
		for k := 1; k <= max; k++ {
			fr, err := p.Frontier(k)
			if err != nil {
				t.Fatalf("Frontier(%d) with MaxPieces %d: %v", k, max, err)
			}
			if len(fr) != k {
				t.Fatalf("Frontier(%d) returned %d pieces", k, len(fr))
			}
			var got []*softblock.Block
			var luts, dsps int64
			for i, n := range fr {
				ls := leaves(n.Block)
				if len(ls) == 0 {
					t.Fatalf("Frontier(%d) piece %d is empty", k, i)
				}
				got = append(got, ls...)
				luts += n.Block.Resources.LUTs
				dsps += n.Block.Resources.DSPs
			}
			if len(got) != len(rootLeaves) {
				t.Fatalf("Frontier(%d) shards hold %d leaves, tree has %d", k, len(got), len(rootLeaves))
			}
			for i := range got {
				if got[i] != rootLeaves[i] {
					t.Fatalf("Frontier(%d) leaf %d is %q, tree order says %q", k, i, got[i].ID, rootLeaves[i].ID)
				}
			}
			if luts != root.Resources.LUTs || dsps != root.Resources.DSPs {
				t.Fatalf("Frontier(%d) resources %d LUTs/%d DSPs, root rolls up %d/%d",
					k, luts, dsps, root.Resources.LUTs, root.Resources.DSPs)
			}
		}
		if _, err := p.Frontier(max + 1); !errors.Is(err, ErrTooManyPieces) {
			t.Fatalf("Frontier(MaxPieces+1) = %v, want ErrTooManyPieces", err)
		}
	})
}

// leaves returns the leaf blocks of the subtree in left-to-right order.
func leaves(b *softblock.Block) []*softblock.Block {
	if b.Kind == softblock.Leaf {
		return []*softblock.Block{b}
	}
	var out []*softblock.Block
	for _, c := range b.Children {
		out = append(out, leaves(c)...)
	}
	return out
}
