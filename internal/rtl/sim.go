package rtl

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrNotSimulable is returned when a design contains blackbox primitives
// without behavioural models, which the two-valued simulator cannot execute.
var ErrNotSimulable = errors.New("rtl: design contains blackbox primitives and cannot be simulated")

// ErrCombLoop is returned when continuous assignments fail to reach a
// fixpoint, indicating a combinational loop.
var ErrCombLoop = errors.New("rtl: combinational loop (assigns did not settle)")

// Simulator executes a flattened design with two-valued semantics. All nets
// are at most 64 bits wide. Continuous assignments are settled by iterating
// to a fixpoint; clocked always blocks apply nonblocking assignments on
// Tick.
type Simulator struct {
	flat *Module
	scope
	nets map[string]int // every port's and net's index plus one, by name
}

// NewFlatSimulator prepares a simulator for an already-flattened module.
// It only reads flat, so simulators of one flat module may run
// concurrently.
func NewFlatSimulator(flat *Module) (*Simulator, error) {
	if len(flat.Instances) > 0 {
		return nil, fmt.Errorf("%w: e.g. %s", ErrNotSimulable, flat.Instances[0].ModuleName)
	}
	n := len(flat.Ports) + len(flat.Nets)
	s := &Simulator{flat: flat, nets: make(map[string]int, n)}
	s.widths, s.vals = make([]int, n), make([]uint64, n)
	for i := range n {
		name, r := flat.declared(i)
		w, err := rangeWidth(r, nil)
		if err != nil {
			return nil, err
		}
		s.nets[name], s.widths[i] = i+1, w
	}
	return s, nil
}

// InputPorts returns the names of input ports in declaration order.
func (s *Simulator) InputPorts() []string { return s.ports(true) }

// OutputPorts returns the names of the other ports in declaration order.
func (s *Simulator) OutputPorts() []string { return s.ports(false) }

func (s *Simulator) ports(inputs bool) []string {
	var out []string
	for _, p := range s.flat.Ports {
		if (p.Dir == Input) == inputs {
			out = append(out, p.Name)
		}
	}
	return out
}

func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & (uint64(1)<<uint(w) - 1)
}

// SetInput drives an input port. The value is masked to the port width.
func (s *Simulator) SetInput(name string, v uint64) error {
	i := s.nets[name] - 1
	if i < 0 || i >= len(s.flat.Ports) || s.flat.Ports[i].Dir != Input {
		return fmt.Errorf("rtl: %q is not an input port", name)
	}
	s.vals[i] = mask(v, s.widths[i])
	return nil
}

// Peek reads the settled value of any net or port.
func (s *Simulator) Peek(name string) (uint64, error) {
	return s.read(&Ident{Name: name, Net: s.nets[name] - 1})
}

// scope is what the evaluator reads names from, and it decides all that
// differs between constant folding and simulation. With widths nil it
// folds constants: env is a parameter environment whose names read as
// 32-bit values (as InferWidth and Flatten treat them), and a name outside
// it or a division or modulo by zero is an error. Otherwise it holds a
// simulator's nets, widths and values by net index (Ident.Net), and x/0
// is 0.
type scope struct {
	widths []int
	vals   []uint64
	env    map[string]uint64
}

// net returns id's net index, and whether it is one of a simulator's.
func (sc scope) net(id *Ident) (int, bool) {
	return id.Net, id.Net >= 0 && id.Net < len(sc.widths)
}

// read returns the value of a name.
func (sc scope) read(id *Ident) (uint64, error) {
	if sc.widths == nil {
		if v, ok := sc.env[id.Name]; ok {
			return mask(v, 32), nil
		}
		return 0, fmt.Errorf("rtl: %q is not a constant", id.Name)
	}
	i, ok := sc.net(id)
	if !ok {
		return 0, fmt.Errorf("rtl: unknown net %q", id.Name)
	}
	return mask(sc.vals[i], sc.widths[i]), nil
}

// width infers an expression's width in this scope.
func (sc scope) width(e Expr) (int, error) {
	return InferWidth(e, sc.widths, sc.env)
}

// eval evaluates an expression against the scope's values.
func (sc scope) eval(e Expr) (uint64, error) {
	switch v := e.(type) {
	case *Ident:
		return sc.read(v)
	case *Number:
		if v.Width > 0 {
			return mask(v.Value, v.Width), nil
		}
		return v.Value, nil
	case *Unary:
		x, err := sc.eval(v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "!":
			return b2u(x == 0), nil
		case "|":
			return b2u(x != 0), nil
		case "^":
			return uint64(bits.OnesCount64(x) & 1), nil
		}
		w, err := sc.width(v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "~":
			return mask(^x, w), nil
		case "-":
			return mask(-x, w), nil
		case "&":
			return b2u(x == mask(^uint64(0), w)), nil
		}
		return 0, fmt.Errorf("rtl: eval: unknown unary %q", v.Op)
	case *Binary:
		l, err := sc.eval(v.L)
		if err != nil {
			return 0, err
		}
		r, err := sc.eval(v.R)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/", "%":
			if r == 0 {
				if sc.widths == nil {
					return 0, fmt.Errorf("rtl: constant %s by zero", v.Op)
				}
				return 0, nil // Verilog x/0 is X; two-valued subset yields 0
			}
			if v.Op == "/" {
				return l / r, nil
			}
			return l % r, nil
		case "<<":
			if r >= 64 {
				return 0, nil
			}
			return l << r, nil
		case ">>":
			if r >= 64 {
				return 0, nil
			}
			return l >> r, nil
		case "&":
			return l & r, nil
		case "|":
			return l | r, nil
		case "^":
			return l ^ r, nil
		case "==":
			return b2u(l == r), nil
		case "!=":
			return b2u(l != r), nil
		case "<":
			return b2u(l < r), nil
		case ">":
			return b2u(l > r), nil
		case "<=":
			return b2u(l <= r), nil
		case ">=":
			return b2u(l >= r), nil
		case "&&":
			return b2u(l != 0 && r != 0), nil
		case "||":
			return b2u(l != 0 || r != 0), nil
		}
		return 0, fmt.Errorf("rtl: eval: unknown binary %q", v.Op)
	case *Cond:
		c, err := sc.eval(v.If)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return sc.eval(v.Then)
		}
		return sc.eval(v.Else)
	case *Index:
		x, err := sc.eval(v.X)
		if err != nil {
			return 0, err
		}
		at, err := sc.eval(v.At)
		if err != nil {
			return 0, err
		}
		if at >= 64 {
			return 0, nil
		}
		return x >> at & 1, nil
	case *Slice:
		x, err := sc.eval(v.X)
		if err != nil {
			return 0, err
		}
		msb, err := sc.eval(v.Msb)
		if err != nil {
			return 0, err
		}
		lsb, err := sc.eval(v.Lsb)
		if err != nil {
			return 0, err
		}
		if lsb > msb || msb >= 64 {
			return 0, fmt.Errorf("rtl: eval: bad slice [%d:%d]", msb, lsb)
		}
		return mask(x>>lsb, int(msb-lsb)+1), nil
	case *Concat:
		var out uint64
		for _, p := range v.Parts {
			w, err := sc.width(p)
			if err != nil {
				return 0, err
			}
			pv, err := sc.eval(p)
			if err != nil {
				return 0, err
			}
			out = out<<uint(w) | mask(pv, w)
		}
		return out, nil
	case *Repl:
		n, err := sc.eval(v.Count)
		if err != nil {
			return 0, err
		}
		w, err := sc.width(v.X)
		if err != nil {
			return 0, err
		}
		xv, err := sc.eval(v.X)
		if err != nil {
			return 0, err
		}
		xv = mask(xv, w)
		var out uint64
		for i := uint64(0); i < n; i++ {
			out = out<<uint(w) | xv
		}
		return out, nil
	}
	return 0, fmt.Errorf("rtl: eval: unknown node %T", e)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// store writes value into an lvalue expression.
func (s *Simulator) store(lhs Expr, value uint64) error {
	switch v := lhs.(type) {
	case *Ident:
		i, ok := s.net(v)
		if !ok {
			return fmt.Errorf("rtl: store: unknown net %q", v.Name)
		}
		s.vals[i] = mask(value, s.widths[i])
		return nil
	case *Index:
		id, ok := v.X.(*Ident)
		if !ok {
			return fmt.Errorf("rtl: store: unsupported lvalue %s", lhs)
		}
		i, known := s.net(id)
		if !known {
			return fmt.Errorf("rtl: store: unknown net %q", id.Name)
		}
		at, err := s.eval(v.At)
		if err != nil {
			return err
		}
		if at >= 64 {
			return fmt.Errorf("rtl: store: index %d out of range", at)
		}
		bit := uint64(1) << at
		if value&1 != 0 {
			s.vals[i] |= bit
		} else {
			s.vals[i] &^= bit
		}
		s.vals[i] = mask(s.vals[i], s.widths[i])
		return nil
	case *Slice:
		id, ok := v.X.(*Ident)
		if !ok {
			return fmt.Errorf("rtl: store: unsupported lvalue %s", lhs)
		}
		i, known := s.net(id)
		if !known {
			return fmt.Errorf("rtl: store: unknown net %q", id.Name)
		}
		msb, err := s.eval(v.Msb)
		if err != nil {
			return err
		}
		lsb, err := s.eval(v.Lsb)
		if err != nil {
			return err
		}
		if lsb > msb || msb >= 64 {
			return fmt.Errorf("rtl: store: bad slice [%d:%d]", msb, lsb)
		}
		w := int(msb-lsb) + 1
		fieldMask := mask(^uint64(0), w) << lsb
		s.vals[i] = mask(s.vals[i]&^fieldMask|(mask(value, w)<<lsb), s.widths[i])
		return nil
	case *Concat:
		// MSB-first split.
		totalW := 0
		partW := make([]int, len(v.Parts))
		for i, p := range v.Parts {
			w, err := s.width(p)
			if err != nil {
				return err
			}
			partW[i] = w
			totalW += w
		}
		shift := totalW
		for i, p := range v.Parts {
			shift -= partW[i]
			if err := s.store(p, mask(value>>uint(shift), partW[i])); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("rtl: store: unsupported lvalue %T", lhs)
}

// maxSettleIters bounds fixpoint iteration; a correct acyclic design settles
// in at most #assigns passes.
const maxSettleIters = 10000

// Settle propagates continuous assignments to a fixpoint.
func (s *Simulator) Settle() error {
	n := len(s.flat.Assigns)
	if n == 0 {
		return nil
	}
	limit := n + 2
	if limit > maxSettleIters {
		limit = maxSettleIters
	}
	for iter := 0; iter < limit; iter++ {
		changed := false
		for i := range s.flat.Assigns {
			a := &s.flat.Assigns[i]
			v, err := s.eval(a.RHS)
			if err != nil {
				return err
			}
			before := s.snapshotLHS(a.LHS)
			if err := s.store(a.LHS, v); err != nil {
				return err
			}
			if s.snapshotLHS(a.LHS) != before {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return ErrCombLoop
}

// snapshotLHS reads the current value behind an lvalue for change detection.
func (s *Simulator) snapshotLHS(lhs Expr) uint64 {
	v, err := s.eval(lhs)
	if err != nil {
		return 0
	}
	return v
}

// Tick applies one clock edge to every always block (nonblocking semantics:
// all right-hand sides are evaluated against pre-edge state), then settles
// combinational logic. Call Settle first if inputs changed since the last
// Tick.
func (s *Simulator) Tick() error {
	if err := s.Settle(); err != nil {
		return err
	}
	type update struct {
		lhs Expr
		val uint64
	}
	var updates []update
	for ai := range s.flat.Alwayses {
		alw := &s.flat.Alwayses[ai]
		for i := range alw.Body {
			sa := &alw.Body[i]
			take := true
			for _, g := range sa.Guard {
				gv, err := s.eval(g)
				if err != nil {
					return err
				}
				if gv == 0 {
					take = false
					break
				}
			}
			if !take {
				continue
			}
			v, err := s.eval(sa.RHS)
			if err != nil {
				return err
			}
			updates = append(updates, update{sa.LHS, v})
		}
	}
	for _, u := range updates {
		if err := s.store(u.lhs, u.val); err != nil {
			return err
		}
	}
	return s.Settle()
}
