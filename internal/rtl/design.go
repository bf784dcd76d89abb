package rtl

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrNotFound is returned when a referenced module does not exist.
var ErrNotFound = errors.New("rtl: module not found")

// Design is a set of modules plus the name of the top module.
type Design struct {
	Modules map[string]*Module
	Top     string
}

// NewDesign builds a design from parsed modules. The top module must exist,
// and every instance of a defined module must connect ports that module
// declares (by name, or by a position inside its port list), each at most
// once. Positional connections are rewritten in place to the port names
// they reach, so every later pass reads Conns by formal name. Instances
// of undefined modules are blackbox primitives and are not checked.
func NewDesign(mods []*Module, top string) (*Design, error) {
	d := &Design{Modules: map[string]*Module{}, Top: top}
	for _, m := range mods {
		if _, dup := d.Modules[m.Name]; dup {
			return nil, fmt.Errorf("rtl: duplicate module %q", m.Name)
		}
		d.Modules[m.Name] = m
	}
	if _, ok := d.Modules[top]; !ok {
		return nil, fmt.Errorf("%w: top module %q", ErrNotFound, top)
	}
	for _, name := range d.SortedModuleNames() {
		for i := range d.Modules[name].Instances {
			inst := &d.Modules[name].Instances[i]
			child, defined := d.Modules[inst.ModuleName]
			if !defined {
				continue
			}
			for _, c := range inst.Conns {
				idx, pos := isPositionalKey(c.Port)
				if !pos {
					if _, ok := child.PortByName(c.Port); !ok {
						return nil, fmt.Errorf("rtl: %s.%s: no port %q on module %s",
							name, inst.Name, c.Port, child.Name)
					}
					continue
				}
				if idx >= len(child.Ports) {
					return nil, fmt.Errorf("rtl: %s.%s: positional connection %d exceeds %d ports of %s",
						name, inst.Name, idx, len(child.Ports), child.Name)
				}
				if _, dup := inst.Conn(child.Ports[idx].Name); dup {
					return nil, fmt.Errorf("rtl: %s.%s: port %q of module %s connected twice",
						name, inst.Name, child.Ports[idx].Name, child.Name)
				}
			}
			for j, c := range inst.Conns {
				if idx, pos := isPositionalKey(c.Port); pos {
					inst.Conns[j].Port = child.Ports[idx].Name
				}
			}
		}
	}
	return d, nil
}

// ParseDesign parses source text and wraps it into a Design.
func ParseDesign(src, top string) (*Design, error) {
	mods, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewDesign(mods, top)
}

// IsPrimitive reports whether name refers to a hard primitive cell rather
// than a module of the design. Any instance whose module has no definition
// in the design is treated as a blackbox primitive; the well-known Xilinx
// primitives additionally carry resource costs (see estimate.go).
func (d *Design) IsPrimitive(name string) bool {
	_, defined := d.Modules[name]
	return !defined
}

// SortedModuleNames returns the module names in lexical order.
func (d *Design) SortedModuleNames() []string {
	names := make([]string, 0, len(d.Modules))
	for n := range d.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Constant evaluation

// EvalConst folds a constant expression under a parameter environment,
// with the simulator's evaluator (see scope).
func EvalConst(e Expr, env map[string]uint64) (uint64, error) { return scope{env: env}.eval(e) }

// rangeWidth returns the bit width of a resolved range under env.
func rangeWidth(r Range, env map[string]uint64) (int, error) {
	if r.IsScalar() {
		return 1, nil
	}
	msb, err := EvalConst(r.Msb, env)
	if err != nil {
		return 0, err
	}
	lsb, err := EvalConst(r.Lsb, env)
	if err != nil {
		return 0, err
	}
	if lsb > msb {
		return 0, fmt.Errorf("rtl: descending range [%d:%d] not supported", msb, lsb)
	}
	w := int(msb-lsb) + 1
	if w <= 0 || w > 64 {
		return 0, fmt.Errorf("rtl: range width %d out of supported range [1,64]", w)
	}
	return w, nil
}

// paramEnv resolves a module's parameter environment given overrides
// (already evaluated to constants). Parameters and localparams are
// evaluated in declaration order so later ones may reference earlier ones.
func (d *Design) paramEnv(m *Module, overrides map[string]uint64) (map[string]uint64, error) {
	var env map[string]uint64 // nil when m has no parameters
	if len(m.Params) > 0 {
		env = make(map[string]uint64, len(m.Params))
	}
	for _, p := range m.Params {
		if v, ok := overrides[p.Name]; ok && !p.IsLocal {
			env[p.Name] = v
			continue
		}
		v, err := EvalConst(p.Default, env)
		if err != nil {
			return nil, fmt.Errorf("rtl: module %s parameter %s: %w", m.Name, p.Name, err)
		}
		env[p.Name] = v
	}
	for name := range overrides {
		found := false
		for _, p := range m.Params {
			if p.Name == name && !p.IsLocal {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("rtl: module %s has no parameter %q", m.Name, name)
		}
	}
	return env, nil
}

// ---------------------------------------------------------------------------
// Elaboration

// ElabKey names an elaborated module: module name plus sorted parameter
// bindings, e.g. "mvm_tile(COLS=128,ROWS=128)".
func ElabKey(name string, params map[string]uint64) string {
	if len(params) == 0 {
		return name
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", k, params[k])
	}
	sb.WriteByte(')')
	return sb.String()
}

// ElabModule is one module elaborated under concrete parameter values.
type ElabModule struct {
	Module *Module
	// Env is the full parameter environment (params + localparams).
	Env map[string]uint64
	// Key identifies this elaboration uniquely within a design.
	Key string
	// Widths holds the resolved width of every port, then of every net:
	// the width of an Ident in Module is Widths[Ident.Net].
	Widths []int
	// PortWidths is the leading part of Widths, parallel to Module.Ports.
	PortWidths []int
	// Children are the elaborated sub-instances, in declaration order.
	// Blackbox primitive instances have a nil Elab.
	Children []ElabInstance
}

// ElabInstance is one instantiation inside an elaborated module.
type ElabInstance struct {
	Inst *Instance
	Elab *ElabModule // nil for blackbox primitives
}

// Elaborate resolves a module and its whole subtree under the given
// parameter overrides. The same (module, params) pair elaborates to a shared
// *ElabModule via the cache, so elaboration of wide data-parallel designs is
// cheap.
func (d *Design) Elaborate(name string, overrides map[string]uint64) (*ElabModule, error) {
	var nets, insts int
	for _, m := range d.Modules {
		nets, insts = nets+len(m.Ports)+len(m.Nets), insts+len(m.Instances)
	}
	return d.elaborate(name, overrides, &elaboration{
		cache:  make(map[string]*ElabModule, len(d.Modules)),
		mods:   make(slab[ElabModule], 0, len(d.Modules)),
		widths: make(slab[int], 0, nets),
		kids:   make(slab[ElabInstance], 0, insts),
	}, 0)
}

// elaboration is one Elaborate call's cache and the slabs its modules,
// widths and children are cut from, sized for one elaboration of every
// module of the design.
type elaboration struct {
	cache  map[string]*ElabModule
	mods   slab[ElabModule]
	widths slab[int]
	kids   slab[ElabInstance]
}

const maxElabDepth = 64

func (d *Design) elaborate(name string, overrides map[string]uint64, e *elaboration, depth int) (*ElabModule, error) {
	if depth > maxElabDepth {
		return nil, fmt.Errorf("rtl: module hierarchy deeper than %d (recursive instantiation?)", maxElabDepth)
	}
	m, ok := d.Modules[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	env, err := d.paramEnv(m, overrides)
	if err != nil {
		return nil, err
	}
	// Cache key uses only non-local parameter bindings.
	public := map[string]uint64{}
	for _, p := range m.Params {
		if !p.IsLocal {
			public[p.Name] = env[p.Name]
		}
	}
	key := ElabKey(name, public)
	if em, hit := e.cache[key]; hit {
		if em == nil {
			return nil, fmt.Errorf("rtl: recursive instantiation of %s", key)
		}
		return em, nil
	}
	e.cache[key] = nil // mark in progress to detect recursion
	em := e.mods.next()
	em.Module, em.Env, em.Key = m, env, key
	em.Widths, em.Children = e.widths.cut(len(m.Ports)+len(m.Nets)), e.kids.cut(len(m.Instances))
	for _, p := range m.Ports {
		w, err := rangeWidth(p.Range, env)
		if err != nil {
			return nil, fmt.Errorf("rtl: module %s port %s: %w", name, p.Name, err)
		}
		em.Widths = append(em.Widths, w)
	}
	for _, n := range m.Nets {
		w, err := rangeWidth(n.Range, env)
		if err != nil {
			return nil, fmt.Errorf("rtl: module %s net %s: %w", name, n.Name, err)
		}
		em.Widths = append(em.Widths, w)
	}
	em.PortWidths = em.Widths[:len(m.Ports)]
	for i := range m.Instances {
		inst := &m.Instances[i]
		if d.IsPrimitive(inst.ModuleName) {
			em.Children = append(em.Children, ElabInstance{Inst: inst})
			continue
		}
		var childOverrides map[string]uint64
		if len(inst.Params) > 0 {
			childOverrides = make(map[string]uint64, len(inst.Params))
		}
		for pname, pexpr := range inst.Params {
			v, err := EvalConst(pexpr, env)
			if err != nil {
				return nil, fmt.Errorf("rtl: %s.%s parameter %s: %w", name, inst.Name, pname, err)
			}
			childOverrides[pname] = v
		}
		child, err := d.elaborate(inst.ModuleName, childOverrides, e, depth+1)
		if err != nil {
			return nil, err
		}
		em.Children = append(em.Children, ElabInstance{Inst: inst, Elab: child})
	}
	e.cache[key] = em
	return em, nil
}

// InferWidth computes the bit width of an expression given its module's
// widths (indexed by Ident.Net, as ElabModule.Widths) and the parameter
// environment. Parameters evaluate as 32-bit values.
func InferWidth(e Expr, widths []int, env map[string]uint64) (int, error) {
	switch v := e.(type) {
	case *Ident:
		if v.Net >= 0 && v.Net < len(widths) {
			return widths[v.Net], nil
		}
		if _, ok := env[v.Name]; ok {
			return 32, nil
		}
		return 0, fmt.Errorf("rtl: unknown net %q", v.Name)
	case *Number:
		if v.Width > 0 {
			return v.Width, nil
		}
		return 32, nil
	case *Unary:
		switch v.Op {
		case "&", "|", "^", "!":
			return 1, nil
		}
		return InferWidth(v.X, widths, env)
	case *Binary:
		switch v.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			return 1, nil
		case "<<", ">>":
			return InferWidth(v.L, widths, env)
		}
		return widest(widths, env, v.L, v.R)
	case *Cond:
		return widest(widths, env, v.Then, v.Else)
	case *Index:
		return 1, nil
	case *Slice:
		msb, err := EvalConst(v.Msb, env)
		if err != nil {
			return 0, err
		}
		lsb, err := EvalConst(v.Lsb, env)
		if err != nil {
			return 0, err
		}
		if lsb > msb {
			return 0, fmt.Errorf("rtl: bad slice [%d:%d]", msb, lsb)
		}
		return int(msb-lsb) + 1, nil
	case *Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := InferWidth(p, widths, env)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *Repl:
		n, err := EvalConst(v.Count, env)
		if err != nil {
			return 0, err
		}
		w, err := InferWidth(v.X, widths, env)
		if err != nil {
			return 0, err
		}
		return int(n) * w, nil
	}
	return 0, fmt.Errorf("rtl: cannot infer width of %s", e)
}

// widest returns the largest width among es.
func widest(widths []int, env map[string]uint64, es ...Expr) (int, error) {
	w := 0
	for _, e := range es {
		ew, err := InferWidth(e, widths, env)
		if err != nil {
			return 0, err
		}
		w = max(w, ew)
	}
	return w, nil
}
