package rtl

import (
	"cmp"
	"fmt"
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

// scopedNet names a net by the instance scope it lives in (0 is the
// design's top, every walked instance opens a new one) and its local name,
// so the walk builds no hierarchical name strings.
type scopedNet struct {
	scope int
	name  string
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
// where basic instances and the boundary attach to them.
type graphBuilder struct {
	d      *Design
	g      *BasicGraph
	ids    map[scopedNet]int
	parent []int
	atts   []attachment
	refs   []netRef // scratch for referencedNets
	scopes int
}

// net returns the id of a net, adding it as its own class on first use.
func (b *graphBuilder) net(scope int, name string) int {
	k := scopedNet{scope, name}
	id, ok := b.ids[k]
	if !ok {
		id = len(b.parent)
		b.ids[k] = id
		b.parent = append(b.parent, id)
	}
	return id
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

// alias joins every net e references in scope with anchor.
func (b *graphBuilder) alias(anchor, scope int, e Expr, widths map[string]int) {
	b.refs = referencedNets(b.refs[:0], e, 0, widths)
	for _, n := range b.refs {
		b.union(anchor, b.net(scope, n.name))
	}
}

// BasicGraph builds the block graph of the elaborated design em.
func (d *Design) BasicGraph(em *ElabModule) (*BasicGraph, error) {
	g := &BasicGraph{}
	if em.Module.IsBasic(d.IsPrimitive) {
		// A design whose top is already basic decomposes to one node.
		g.Insts = append(g.Insts, BasicInst{Path: em.Module.Name, Elab: em})
		return g, nil
	}
	// The top's nets and its children's ports: all of a two-level design.
	size := len(em.Module.Ports) + len(em.Module.Nets)
	for _, c := range em.Children {
		if c.Elab != nil {
			size += len(c.Elab.Module.Ports)
		}
	}
	b := &graphBuilder{d: d, g: g, ids: make(map[scopedNet]int, size),
		parent: make([]int, 0, size), atts: make([]attachment, 0, size)}
	g.Insts = make([]BasicInst, 0, len(em.Children))

	// Top-level ports attach to the boundary. From the graph's perspective
	// a top input is driven by the boundary, so the boundary acts as an
	// Output attachment (a driver), and vice versa.
	for i, p := range em.Module.Ports {
		boundaryDir := Output
		if p.Dir == Output {
			boundaryDir = Input
		}
		b.atts = append(b.atts, attachment{net: b.net(0, p.Name), inst: Boundary, dir: boundaryDir, width: em.PortWidths[i]})
	}
	if err := b.walk(em, 0, ""); err != nil {
		return nil, err
	}

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
	return g, nil
}

// walk unions m's nets (in scope, under the instance path prefix) with its
// children's ports, records basic instances and their attachments, and
// descends into the other children.
func (b *graphBuilder) walk(m *ElabModule, scope int, prefix string) error {
	widths, err := m.NetWidths()
	if err != nil {
		return err
	}
	// Glue assigns alias their nets conservatively.
	for _, a := range m.Module.Assigns {
		b.refs = referencedNets(b.refs[:0], a.LHS, 0, widths)
		if len(b.refs) == 0 {
			continue
		}
		anchor := b.net(scope, b.refs[0].name)
		for _, n := range b.refs[1:] {
			b.union(anchor, b.net(scope, n.name))
		}
		b.alias(anchor, scope, a.RHS, widths)
	}
	for ci := range m.Children {
		child := &m.Children[ci]
		inst := child.Inst
		if child.Elab == nil {
			continue // primitive cells inside non-basic modules: decoration
		}
		b.scopes++
		childScope := b.scopes
		// Union each formal port with its actual's nets.
		for _, p := range child.Elab.Module.Ports {
			if actual, _ := inst.Conn(p.Name); actual != nil {
				b.alias(b.net(childScope, p.Name), scope, actual, widths)
			}
		}
		if child.Elab.Module.IsBasic(b.d.IsPrimitive) {
			idx := len(b.g.Insts)
			b.g.Insts = append(b.g.Insts, BasicInst{Path: prefix + inst.Name, Elab: child.Elab})
			for i, p := range child.Elab.Module.Ports {
				b.atts = append(b.atts, attachment{
					net:   b.net(childScope, p.Name),
					inst:  idx,
					dir:   p.Dir,
					width: child.Elab.PortWidths[i],
				})
			}
			continue
		}
		if err := b.walk(child.Elab, childScope, prefix+inst.Name+"."); err != nil {
			return err
		}
	}
	return nil
}

// netRef is one net referenced by an expression with the bit width of the
// reference.
type netRef struct {
	name string
	bits int
}

// referencedNets appends the nets e touches to dst. Widths are
// best-effort (full net width for plain identifiers, slice width for part
// selects); bits is the width the enclosing select imposes, 0 for none.
func referencedNets(dst []netRef, e Expr, bits int, widths map[string]int) []netRef {
	switch v := e.(type) {
	case *Ident:
		if w, ok := widths[v.Name]; ok {
			if bits <= 0 || bits > w {
				bits = w
			}
			dst = append(dst, netRef{v.Name, bits})
		}
	case *Unary:
		dst = referencedNets(dst, v.X, 0, widths)
	case *Binary:
		dst = referencedNets(dst, v.L, 0, widths)
		dst = referencedNets(dst, v.R, 0, widths)
	case *Cond:
		dst = referencedNets(dst, v.If, 0, widths)
		dst = referencedNets(dst, v.Then, 0, widths)
		dst = referencedNets(dst, v.Else, 0, widths)
	case *Index:
		dst = referencedNets(dst, v.X, 1, widths)
		dst = referencedNets(dst, v.At, 0, widths)
	case *Slice:
		w := 0
		if msb, err := EvalConst(v.Msb, nil); err == nil {
			if lsb, err := EvalConst(v.Lsb, nil); err == nil && msb >= lsb {
				w = int(msb-lsb) + 1
			}
		}
		dst = referencedNets(dst, v.X, w, widths)
	case *Concat:
		for _, p := range v.Parts {
			dst = referencedNets(dst, p, 0, widths)
		}
	case *Repl:
		dst = referencedNets(dst, v.X, 0, widths)
	}
	return dst
}

// String renders the graph for debugging.
func (g *BasicGraph) String() string {
	s := fmt.Sprintf("BasicGraph{%d insts, %d edges}\n", len(g.Insts), len(g.Edges))
	for i, n := range g.Insts {
		s += fmt.Sprintf("  [%d] %s : %s\n", i, n.Path, n.Elab.Key)
	}
	for _, e := range g.Edges {
		s += fmt.Sprintf("  %d -> %d (%d bits)\n", e.From, e.To, e.Bits)
	}
	return s
}
