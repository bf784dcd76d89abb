package rtl

import (
	"fmt"
	"sort"
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

// netClasses is a union-find over hierarchical net names.
type netClasses struct {
	parent map[string]string
}

func newNetClasses() *netClasses { return &netClasses{parent: map[string]string{}} }

func (nc *netClasses) find(x string) string {
	p, ok := nc.parent[x]
	if !ok {
		nc.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := nc.find(p)
	nc.parent[x] = root
	return root
}

func (nc *netClasses) union(a, b string) {
	ra, rb := nc.find(a), nc.find(b)
	if ra != rb {
		nc.parent[ra] = rb
	}
}

// attachment is one point where a basic instance or the boundary touches a
// net class.
type attachment struct {
	inst  int // index into Insts, or Boundary
	dir   Dir // direction as seen by the attached node
	width int
}

// BasicGraph builds the block graph of the elaborated design em.
func (d *Design) BasicGraph(em *ElabModule) (*BasicGraph, error) {
	g := &BasicGraph{}
	nc := newNetClasses()
	attachments := map[string][]attachment{} // net-class root resolved later

	var rawAttach []struct {
		net string
		att attachment
	}
	addAttach := func(net string, att attachment) {
		rawAttach = append(rawAttach, struct {
			net string
			att attachment
		}{net, att})
	}

	// Top-level ports attach to the boundary. From the graph's perspective
	// a top input is driven by the boundary, so the boundary acts as an
	// Output attachment (a driver), and vice versa.
	for _, p := range em.Module.Ports {
		boundaryDir := Output
		if p.Dir == Output {
			boundaryDir = Input
		}
		addAttach(p.Name, attachment{inst: Boundary, dir: boundaryDir, width: em.PortWidths[p.Name]})
	}

	var walk func(m *ElabModule, prefix string) error
	walk = func(m *ElabModule, prefix string) error {
		// Glue assigns alias their nets conservatively.
		widths, err := m.NetWidths()
		if err != nil {
			return err
		}
		aliasExpr := func(anchor string, e Expr) {
			for _, n := range referencedNets(e, widths) {
				nc.union(anchor, prefix+n.name)
			}
		}
		for _, a := range m.Module.Assigns {
			lhsNets := referencedNets(a.LHS, widths)
			if len(lhsNets) == 0 {
				continue
			}
			anchor := prefix + lhsNets[0].name
			for _, n := range lhsNets[1:] {
				nc.union(anchor, prefix+n.name)
			}
			aliasExpr(anchor, a.RHS)
		}
		for ci := range m.Children {
			child := &m.Children[ci]
			inst := child.Inst
			if child.Elab == nil {
				continue // primitive cells inside non-basic modules: decoration
			}
			childPrefix := prefix + inst.Name + "."
			conns, err := resolveConns(inst, child.Elab.Module)
			if err != nil {
				return err
			}
			// Union each formal port with its actual's nets.
			for _, p := range child.Elab.Module.Ports {
				actual, ok := conns[p.Name]
				if !ok || actual == nil {
					continue
				}
				aliasExpr(childPrefix+p.Name, actual)
			}
			if child.Elab.Module.IsBasic(d.IsPrimitive) {
				idx := len(g.Insts)
				g.Insts = append(g.Insts, BasicInst{
					Path: prefix + inst.Name,
					Elab: child.Elab,
				})
				for _, p := range child.Elab.Module.Ports {
					addAttach(childPrefix+p.Name, attachment{
						inst:  idx,
						dir:   p.Dir,
						width: child.Elab.PortWidths[p.Name],
					})
				}
				continue
			}
			if err := walk(child.Elab, childPrefix); err != nil {
				return err
			}
		}
		return nil
	}

	if em.Module.IsBasic(d.IsPrimitive) {
		// A design whose top is already basic decomposes to one node.
		g.Insts = append(g.Insts, BasicInst{Path: em.Module.Name, Elab: em})
		return g, nil
	}
	if err := walk(em, ""); err != nil {
		return nil, err
	}

	// Resolve attachments to final class roots.
	for _, ra := range rawAttach {
		root := nc.find(ra.net)
		attachments[root] = append(attachments[root], ra.att)
	}

	// Build edges: every driver (Output attachment) feeds every reader
	// (Input attachment) in its class.
	type edgeKey struct{ from, to int }
	acc := map[edgeKey]int{}
	roots := make([]string, 0, len(attachments))
	for root := range attachments {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	for _, root := range roots {
		atts := attachments[root]
		for _, drv := range atts {
			if drv.dir != Output {
				continue
			}
			for _, snk := range atts {
				if snk.dir != Input {
					continue
				}
				if drv.inst == snk.inst {
					continue
				}
				bits := snk.width
				if drv.width < bits {
					bits = drv.width
				}
				acc[edgeKey{drv.inst, snk.inst}] += bits
			}
		}
	}
	keys := make([]edgeKey, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		g.Edges = append(g.Edges, BasicEdge{From: k.from, To: k.to, Bits: acc[k]})
	}
	return g, nil
}

// netRef is one net referenced by an expression with the bit width of the
// reference.
type netRef struct {
	name string
	bits int
}

// referencedNets lists the nets an expression touches. Widths are
// best-effort (full net width for plain identifiers, slice width for part
// selects).
func referencedNets(e Expr, widths map[string]int) []netRef {
	var out []netRef
	var walk func(x Expr, bits int)
	walk = func(x Expr, bits int) {
		switch v := x.(type) {
		case *Ident:
			if w, ok := widths[v.Name]; ok {
				if bits <= 0 || bits > w {
					bits = w
				}
				out = append(out, netRef{v.Name, bits})
			}
		case *Number:
		case *Unary:
			walk(v.X, 0)
		case *Binary:
			walk(v.L, 0)
			walk(v.R, 0)
		case *Cond:
			walk(v.If, 0)
			walk(v.Then, 0)
			walk(v.Else, 0)
		case *Index:
			walk(v.X, 1)
			walk(v.At, 0)
		case *Slice:
			w := 0
			if msb, err := EvalConst(v.Msb, nil); err == nil {
				if lsb, err := EvalConst(v.Lsb, nil); err == nil && msb >= lsb {
					w = int(msb-lsb) + 1
				}
			}
			walk(v.X, w)
		case *Concat:
			for _, p := range v.Parts {
				walk(p, 0)
			}
		case *Repl:
			walk(v.X, 0)
		}
	}
	walk(e, 0)
	return out
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
