package rtl

import (
	"strings"

	"mlvfpga/internal/resource"
)

// Primitive resource costs for the blackbox cells the generated accelerator
// RTL instantiates. These mirror the Xilinx UltraScale(+) primitive library:
// a DSP48E2 slice, 36Kb/18Kb block RAMs, a 288Kb UltraRAM, flip-flops and
// LUTs.
var primitiveCosts = map[string]resource.Vector{
	"DSP48E2":  {DSPs: 1},
	"RAMB36E2": {BRAMKb: 36},
	"RAMB18E2": {BRAMKb: 18},
	"URAM288":  {URAMKb: 288},
	"FDRE":     {DFFs: 1},
	"CARRY8":   {LUTs: 8},
}

// PrimitiveCost returns the resource cost of a blackbox primitive, and
// whether the name is a known primitive. LUT1..LUT6 cost one LUT each.
func PrimitiveCost(name string) (resource.Vector, bool) {
	if v, ok := primitiveCosts[name]; ok {
		return v, true
	}
	if strings.HasPrefix(name, "LUT") && len(name) == 4 && name[3] >= '1' && name[3] <= '6' {
		return resource.Vector{LUTs: 1}, true
	}
	return resource.Vector{}, false
}

// EstimateResources estimates the FPGA resources of an elaborated module
// and its whole subtree: known primitives contribute their hard cost,
// behavioural code is estimated operator-by-operator, and every reg bit
// costs one flip-flop. Unknown blackboxes contribute nothing (they are
// assumed to be interface stubs).
//
// The estimate feeds the soft-block resource annotations that the
// partitioner and the runtime manager pack against device capacities.
func (d *Design) EstimateResources(em *ElabModule) (resource.Vector, error) {
	return d.estimate(em, nil)
}

// estimate memoizes shared subtrees in memo, which the first module with
// a module child makes: a basic module needs none.
func (d *Design) estimate(em *ElabModule, memo map[*ElabModule]resource.Vector) (resource.Vector, error) {
	if v, ok := memo[em]; ok {
		return v, nil
	}
	var total resource.Vector
	widths := em.Widths

	// Registers: one DFF per reg bit (ports and nets).
	for i, p := range em.Module.Ports {
		if p.IsReg {
			total.DFFs += int64(widths[i])
		}
	}
	for i, n := range em.Module.Nets {
		if n.IsReg {
			total.DFFs += int64(widths[len(em.Module.Ports)+i])
		}
	}

	// Combinational logic from assigns and always bodies.
	for _, a := range em.Module.Assigns {
		total = total.Add(estimateExpr(a.RHS, widths, em.Env))
	}
	for _, alw := range em.Module.Alwayses {
		for _, sa := range alw.Body {
			total = total.Add(estimateExpr(sa.RHS, widths, em.Env))
			for _, g := range sa.Guard {
				total = total.Add(estimateExpr(g, widths, em.Env))
			}
			// Guarded register loads need an input mux.
			if len(sa.Guard) > 0 {
				if w, err := InferWidth(sa.LHS, widths, em.Env); err == nil {
					total.LUTs += int64(w)
				}
			}
		}
	}

	// Children: primitives by table, modules recursively.
	for _, child := range em.Children {
		if child.Elab == nil {
			if cost, known := PrimitiveCost(child.Inst.ModuleName); known {
				total = total.Add(cost)
			}
			continue
		}
		if memo == nil {
			memo = map[*ElabModule]resource.Vector{}
		}
		sub, err := d.estimate(child.Elab, memo)
		if err != nil {
			return resource.Vector{}, err
		}
		total = total.Add(sub)
	}
	if memo != nil {
		memo[em] = total
	}
	return total, nil
}

// estimateExpr walks an expression and accumulates operator costs:
//
//	add/sub          width LUTs (carry chain)
//	bitwise/mux/cmp  width LUTs
//	multiply         ceil(wl/18)*ceil(wr/18) DSP slices
//	variable shift   2*width LUTs (barrel shifter stages)
//	reductions       width/4 LUTs
func estimateExpr(e Expr, widths []int, env map[string]uint64) resource.Vector {
	var total resource.Vector
	w := func(x Expr) int64 {
		ww, err := InferWidth(x, widths, env)
		if err != nil {
			return 1
		}
		return int64(ww)
	}
	switch v := e.(type) {
	case *Ident, *Number:
		// free
	case *Unary:
		total = estimateExpr(v.X, widths, env)
		switch v.Op {
		case "~", "-":
			total.LUTs += w(v.X)
		case "&", "|", "^":
			total.LUTs += (w(v.X) + 3) / 4
		case "!":
			total.LUTs += (w(v.X) + 3) / 4
		}
	case *Binary:
		total = estimateExpr(v.L, widths, env).Add(estimateExpr(v.R, widths, env))
		wl, wr := w(v.L), w(v.R)
		wmax := max(wl, wr)
		switch v.Op {
		case "+", "-":
			total.LUTs += wmax
		case "*":
			total.DSPs += ((wl + 17) / 18) * ((wr + 17) / 18)
		case "&", "|", "^":
			total.LUTs += wmax
		case "==", "!=", "<", ">", "<=", ">=":
			total.LUTs += (wmax + 1) / 2
		case "&&", "||":
			total.LUTs++
		case "<<", ">>":
			if _, isConst := v.R.(*Number); !isConst {
				total.LUTs += 2 * wl
			}
		}
	case *Cond:
		total = estimateExpr(v.If, widths, env).
			Add(estimateExpr(v.Then, widths, env)).
			Add(estimateExpr(v.Else, widths, env))
		total.LUTs += max(w(v.Then), w(v.Else)) // 2:1 mux per bit
	case *Index:
		total = estimateExpr(v.X, widths, env)
		if _, isConst := v.At.(*Number); !isConst {
			total = total.Add(estimateExpr(v.At, widths, env))
			total.LUTs += w(v.X) / 4 // bit mux tree
		}
	case *Slice:
		total = estimateExpr(v.X, widths, env)
	case *Concat:
		for _, p := range v.Parts {
			total = total.Add(estimateExpr(p, widths, env))
		}
	case *Repl:
		total = estimateExpr(v.X, widths, env)
	}
	return total
}
