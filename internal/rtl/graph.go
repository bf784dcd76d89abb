package rtl

import (
	"cmp"
	"slices"
)

// This file extracts the "block graph" of §2.2.1 step 1: the design is
// walked down to its basic modules (modules that instantiate no other
// design module); each basic-module instance becomes a node, and edges
// carry the connection bit width (the communication bandwidth the
// partitioner later minimizes across cuts).
//
// Connectivity is computed with a union-find over hierarchical net names:
// port bindings alias the child's formal net with the nets referenced by
// the actual expression. Aliasing through non-trivial expressions (slices,
// concats, glue logic) is conservative — all referenced nets join one
// class — which can only over-connect, never miss a connection.

// BasicInst is one basic-module instance in the design.
type BasicInst struct {
	// Path is the hierarchical instance path from the root elaboration,
	// e.g. "datapath.tile0.mvm".
	Path string
	// Elab is the elaborated basic module.
	Elab *ElabModule
}

// BasicEdge is a directed connection between basic instances.
// From/To index into BasicGraph.Insts; Boundary (-1) denotes the design's
// top-level ports.
type BasicEdge struct {
	From, To int
	Bits     int
}

// Boundary is the pseudo-node index for top-level ports.
const Boundary = -1

// BasicGraph is the block graph over basic-module instances.
type BasicGraph struct {
	Insts []BasicInst
	Edges []BasicEdge
}

// attachment is one point where a basic instance or the boundary touches a
// net class.
type attachment struct {
	net   int // net id, resolved to its class root before edges are built
	inst  int // index into Insts, or Boundary
	dir   Dir // direction as seen by the attached node
	width int
}

// graphBuilder is a union-find over the design's nets plus the points
// where basic instances and the boundary attach to them. Every walked
// instance (and the top) is a scope whose nets hold consecutive ids from
// the scope's base on, in the order of their indices (Ident.Net), so the
// walk looks up no names.
type graphBuilder struct {
	d      *Design
	g      *BasicGraph
	parent []int
	atts   []attachment
	refs   []int // scratch for referencedNets
}

// scope opens a scope of n nets, each its own class, and returns its base.
func (b *graphBuilder) scope(n int) int {
	base := len(b.parent)
	for i := range n {
		b.parent = append(b.parent, base+i)
	}
	return base
}

func (b *graphBuilder) find(x int) int {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}

func (b *graphBuilder) union(x, y int) {
	if rx, ry := b.find(x), b.find(y); rx != ry {
		b.parent[rx] = ry
	}
}

// alias joins every net e references in the scope at base with anchor.
func (b *graphBuilder) alias(anchor, base int, e Expr) {
	b.refs = referencedNets(b.refs[:0], e)
	for _, n := range b.refs {
		b.union(anchor, base+n)
	}
}

// BasicGraph builds the block graph of the elaborated design em.
func (d *Design) BasicGraph(em *ElabModule) *BasicGraph {
	g := &BasicGraph{}
	if em.Module.IsBasic(d.IsPrimitive) {
		// A design whose top is already basic decomposes to one node.
		g.Insts = append(g.Insts, BasicInst{Path: em.Module.Name, Elab: em})
		return g
	}
	// The top's nets and its children's ports: all of a two-level design.
	size := len(em.Widths)
	for _, c := range em.Children {
		if c.Elab != nil {
			size += len(c.Elab.Module.Ports)
		}
	}
	b := &graphBuilder{d: d, g: g, parent: make([]int, 0, size), atts: make([]attachment, 0, size)}
	g.Insts = make([]BasicInst, 0, len(em.Children))
	top := b.scope(len(em.Widths))

	// Top-level ports attach to the boundary. From the graph's perspective
	// a top input is driven by the boundary, so the boundary acts as an
	// Output attachment (a driver), and vice versa.
	for i, p := range em.Module.Ports {
		boundaryDir := Output
		if p.Dir == Output {
			boundaryDir = Input
		}
		b.atts = append(b.atts, attachment{net: top + i, inst: Boundary, dir: boundaryDir, width: em.PortWidths[i]})
	}
	b.walk(em, top, "")

	// Group the attachments by class; every driver (Output attachment)
	// feeds every reader (Input attachment) in its class.
	g.Edges = make([]BasicEdge, 0, len(b.atts))
	for i := range b.atts {
		b.atts[i].net = b.find(b.atts[i].net)
	}
	slices.SortFunc(b.atts, func(x, y attachment) int { return cmp.Compare(x.net, y.net) })
	for lo := 0; lo < len(b.atts); {
		hi := lo + 1
		for hi < len(b.atts) && b.atts[hi].net == b.atts[lo].net {
			hi++
		}
		class := b.atts[lo:hi]
		for _, drv := range class {
			if drv.dir != Output {
				continue
			}
			for _, snk := range class {
				if snk.dir != Input || drv.inst == snk.inst {
					continue
				}
				g.Edges = append(g.Edges, BasicEdge{From: drv.inst, To: snk.inst, Bits: min(drv.width, snk.width)})
			}
		}
		lo = hi
	}
	// Sum parallel edges, in (From, To) order.
	slices.SortFunc(g.Edges, func(x, y BasicEdge) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	n := 0
	for _, e := range g.Edges {
		if n > 0 && g.Edges[n-1].From == e.From && g.Edges[n-1].To == e.To {
			g.Edges[n-1].Bits += e.Bits
			continue
		}
		g.Edges[n] = e
		n++
	}
	g.Edges = g.Edges[:n]
	return g
}

// walk unions m's nets (in the scope at base, under the instance path
// prefix) with its children's ports, records basic instances and their
// attachments, and descends into the other children.
func (b *graphBuilder) walk(m *ElabModule, base int, prefix string) {
	// Glue assigns alias their nets conservatively.
	for _, a := range m.Module.Assigns {
		b.refs = referencedNets(b.refs[:0], a.LHS)
		if len(b.refs) == 0 {
			continue
		}
		anchor := base + b.refs[0]
		for _, n := range b.refs[1:] {
			b.union(anchor, base+n)
		}
		b.alias(anchor, base, a.RHS)
	}
	for ci := range m.Children {
		child := &m.Children[ci]
		inst := child.Inst
		if child.Elab == nil {
			continue // primitive cells inside non-basic modules: decoration
		}
		basic := child.Elab.Module.IsBasic(b.d.IsPrimitive)
		// A basic child's nets are never walked: its scope is its ports.
		n := len(child.Elab.Widths)
		if basic {
			n = len(child.Elab.PortWidths)
		}
		childBase := b.scope(n)
		// Union each formal port with its actual's nets.
		for i, p := range child.Elab.Module.Ports {
			if actual, _ := inst.Conn(p.Name); actual != nil {
				b.alias(childBase+i, base, actual)
			}
		}
		if basic {
			idx := len(b.g.Insts)
			b.g.Insts = append(b.g.Insts, BasicInst{Path: prefix + inst.Name, Elab: child.Elab})
			for i, p := range child.Elab.Module.Ports {
				b.atts = append(b.atts, attachment{
					net:   childBase + i,
					inst:  idx,
					dir:   p.Dir,
					width: child.Elab.PortWidths[i],
				})
			}
			continue
		}
		b.walk(child.Elab, childBase, prefix+inst.Name+".")
	}
}

// referencedNets appends the indices (Ident.Net) of the nets e touches
// to dst.
func referencedNets(dst []int, e Expr) []int {
	switch v := e.(type) {
	case *Ident:
		if v.Net >= 0 {
			dst = append(dst, v.Net)
		}
	case *Unary:
		dst = referencedNets(dst, v.X)
	case *Binary:
		dst = referencedNets(referencedNets(dst, v.L), v.R)
	case *Cond:
		dst = referencedNets(referencedNets(referencedNets(dst, v.If), v.Then), v.Else)
	case *Index:
		dst = referencedNets(referencedNets(dst, v.X), v.At)
	case *Slice:
		dst = referencedNets(dst, v.X)
	case *Concat:
		for _, p := range v.Parts {
			dst = referencedNets(dst, p)
		}
	case *Repl:
		dst = referencedNets(dst, v.X)
	}
	return dst
}
