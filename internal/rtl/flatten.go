package rtl

import (
	"fmt"
)

// Flatten inlines the whole hierarchy below module top (with the given
// parameter overrides) into a single-level module: instance nets are
// prefixed with their instance path, parameters are substituted with
// constants, and port connections become continuous assignments. Blackbox
// primitive instances are kept as instances with rewritten connections.
//
// The result is what the simulator and the simulation-based equivalence
// checker run on.
func (d *Design) Flatten(top string, overrides map[string]uint64) (*Module, error) {
	em, err := d.Elaborate(top, overrides)
	if err != nil {
		return nil, err
	}
	flat := &Module{Name: top + "$flat"}
	for i, p := range em.Module.Ports {
		w := em.PortWidths[i]
		flat.Ports = append(flat.Ports, Port{Name: p.Name, Dir: p.Dir, Range: concreteRange(w), IsReg: p.IsReg})
	}
	if err := d.flattenInto(flat, em, "", 0); err != nil {
		return nil, err
	}
	return flat, nil
}

// concreteRange builds a Range with numeric bounds for a width.
func concreteRange(w int) Range {
	if w == 1 {
		return Range{}
	}
	return Range{Msb: &Number{Value: uint64(w - 1)}, Lsb: &Number{Value: 0}}
}

// flattenInto appends em's resolved contents into flat under the given
// instance prefix ("" for the top level). em's ports are flat's ports or
// nets from net index ports on, in flat's numbering (Ident.Net), and its
// nets are appended to flat's here.
func (d *Design) flattenInto(flat *Module, em *ElabModule, prefix string, ports int) error {
	nports, nets := len(em.Module.Ports), len(flat.Ports)+len(flat.Nets)
	// flatNet maps a net index of em to flat's.
	flatNet := func(i int) int {
		if i < nports {
			return ports + i
		}
		return nets + i - nports
	}
	// rewrite substitutes parameters with constants and prefixes net names.
	rewrite := func(e Expr) (Expr, error) {
		return substExpr(e, func(id *Ident) (Expr, error) {
			if id.Net >= 0 {
				return &Ident{Name: prefix + id.Name, Net: flatNet(id.Net)}, nil
			}
			if v, isParam := em.Env[id.Name]; isParam {
				return &Number{Value: v, Width: 32}, nil
			}
			return nil, fmt.Errorf("rtl: module %s: unknown identifier %q", em.Module.Name, id.Name)
		})
	}

	for i, n := range em.Module.Nets {
		flat.Nets = append(flat.Nets, Net{Name: prefix + n.Name, Range: concreteRange(em.Widths[nports+i]), IsReg: n.IsReg})
	}

	for _, a := range em.Module.Assigns {
		lhs, err := rewrite(a.LHS)
		if err != nil {
			return err
		}
		rhs, err := rewrite(a.RHS)
		if err != nil {
			return err
		}
		flat.Assigns = append(flat.Assigns, Assign{LHS: lhs, RHS: rhs})
	}

	for _, alw := range em.Module.Alwayses {
		if alw.ClockNet < 0 {
			return fmt.Errorf("rtl: module %s: clock %q is not a net", em.Module.Name, alw.Clock)
		}
		out := Always{Clock: prefix + alw.Clock, ClockNet: flatNet(alw.ClockNet), Negedge: alw.Negedge}
		for _, sa := range alw.Body {
			lhs, err := rewrite(sa.LHS)
			if err != nil {
				return err
			}
			rhs, err := rewrite(sa.RHS)
			if err != nil {
				return err
			}
			guards := make([]Expr, len(sa.Guard))
			for i, g := range sa.Guard {
				guards[i], err = rewrite(g)
				if err != nil {
					return err
				}
			}
			out.Body = append(out.Body, SeqAssign{LHS: lhs, RHS: rhs, Guard: guards})
		}
		flat.Alwayses = append(flat.Alwayses, out)
	}

	for ci := range em.Children {
		child := &em.Children[ci]
		inst := child.Inst
		if child.Elab == nil {
			// Blackbox primitive: keep, with rewritten connections.
			kept := Instance{
				ModuleName: inst.ModuleName,
				Name:       prefix + inst.Name,
				Conns:      make([]Conn, len(inst.Conns)),
			}
			for i, c := range inst.Conns {
				kept.Conns[i].Port = c.Port
				if c.Expr == nil {
					continue
				}
				rv, err := rewrite(c.Expr)
				if err != nil {
					return err
				}
				kept.Conns[i].Expr = rv
			}
			flat.Instances = append(flat.Instances, kept)
			continue
		}

		childPrefix := prefix + inst.Name + "."
		childPorts := len(flat.Ports) + len(flat.Nets)
		// Declare the child's ports as nets of the flat module.
		for i, p := range child.Elab.Module.Ports {
			w := child.Elab.PortWidths[i]
			flat.Nets = append(flat.Nets, Net{Name: childPrefix + p.Name, Range: concreteRange(w), IsReg: p.IsReg})
		}
		// Bind connections.
		for i, p := range child.Elab.Module.Ports {
			actual, connected := inst.Conn(p.Name)
			formal := &Ident{Name: childPrefix + p.Name, Net: childPorts + i}
			switch {
			case !connected || actual == nil:
				if p.Dir == Input {
					// Tie floating inputs low for determinism.
					flat.Assigns = append(flat.Assigns, Assign{LHS: formal, RHS: &Number{Value: 0, Width: child.Elab.PortWidths[i]}})
				}
			case p.Dir == Input:
				ra, err := rewrite(actual)
				if err != nil {
					return err
				}
				flat.Assigns = append(flat.Assigns, Assign{LHS: formal, RHS: ra})
			case p.Dir == Output:
				ra, err := rewrite(actual)
				if err != nil {
					return err
				}
				if !isLValue(ra) {
					return fmt.Errorf("rtl: %s%s.%s: output connected to non-assignable expression %s",
						prefix, inst.Name, p.Name, ra)
				}
				flat.Assigns = append(flat.Assigns, Assign{LHS: ra, RHS: formal})
			default:
				return fmt.Errorf("rtl: %s%s.%s: inout ports are not supported by flattening",
					prefix, inst.Name, p.Name)
			}
		}
		if err := d.flattenInto(flat, child.Elab, childPrefix, childPorts); err != nil {
			return err
		}
	}
	return nil
}

// substExpr rewrites every identifier in e through fn, rebuilding the tree.
// The first error stops the rewrite.
func substExpr(e Expr, fn func(*Ident) (Expr, error)) (Expr, error) {
	var err error
	sub := func(x Expr) Expr {
		if err != nil {
			return nil
		}
		x, err = substExpr(x, fn)
		return x
	}
	var out Expr
	switch v := e.(type) {
	case *Ident:
		return fn(v)
	case *Number:
		return v, nil
	case *Unary:
		out = &Unary{Op: v.Op, X: sub(v.X)}
	case *Binary:
		out = &Binary{Op: v.Op, L: sub(v.L), R: sub(v.R)}
	case *Cond:
		out = &Cond{If: sub(v.If), Then: sub(v.Then), Else: sub(v.Else)}
	case *Index:
		out = &Index{X: sub(v.X), At: sub(v.At)}
	case *Slice:
		out = &Slice{X: sub(v.X), Msb: sub(v.Msb), Lsb: sub(v.Lsb)}
	case *Concat:
		parts := make([]Expr, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = sub(p)
		}
		out = &Concat{Parts: parts}
	case *Repl:
		out = &Repl{Count: sub(v.Count), X: sub(v.X)}
	default:
		return nil, fmt.Errorf("rtl: substExpr: unknown node %T", e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// isLValue reports whether an expression may appear on the left-hand side of
// an assignment: identifiers, bit/part selects of identifiers, and
// concatenations of those.
func isLValue(e Expr) bool {
	switch v := e.(type) {
	case *Ident:
		return true
	case *Index:
		return isLValue(v.X)
	case *Slice:
		return isLValue(v.X)
	case *Concat:
		for _, p := range v.Parts {
			if !isLValue(p) {
				return false
			}
		}
		return len(v.Parts) > 0
	}
	return false
}
