package mlvfpga

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// allowedOrphans are exported names only tests reference, and option
// fields only tests set, each with the reason it stays. Keyed "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field"; "pkg.Type.{A,B}" lists several
// members of one type kept for one reason.
var allowedOrphans = map[string]string{
	"experiments.Fig12Options.{MeanInterarrival,Seed}": "re-exported by the facade as mlvfpga.Fig12Options, whose callers are outside the module; inside it every run uses DefaultFig12Options' values",
}

// reachedByName are methods the runtime or the standard library calls on
// a value without any module file selecting them: encoding/json's hooks,
// fmt's Stringer and error, errors.Unwrap, and sort.Interface plus
// container/heap's two. A reached type's methods of these names are
// reached.
var reachedByName = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// The standard library is type-checked from GOROOT source once per test
// binary and shared by every gate run below; nothing is cached on disk.
var (
	gateFset = token.NewFileSet()
	gateStd  = importer.ForCompiler(gateFset, "source", nil)
)

// gateImporter resolves module packages from the parsed sources and
// everything else from the standard library.
type gateImporter struct {
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (g *gateImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := g.pkgs[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	files, ok := g.files[p]
	if !ok {
		return gateStd.Import(p)
	}
	g.pkgs[p] = nil
	pkg, err := (&types.Config{Importer: g}).Check(p, gateFset, files, g.info)
	if err != nil {
		return nil, err
	}
	g.pkgs[p] = pkg
	return pkg, nil
}

// orphans type-checks the non-test Go sources of one module
// (slash-separated module-relative path → content) and reports:
//
//   - every package-level func, type, var and const and every method that
//     no entry point reaches. This is rapid type analysis (Bacon & Sweeney,
//     OOPSLA 1996). The roots are each main package's main, the exported
//     package-level names of the module's root package (the facade), every
//     init and package-level var initializer, and every allowed entry.
//     Everything reached code names is reached, resolved through go/types,
//     so a method is matched by its receiver, not by its spelling. A method
//     of a reached type is also reached when reached code names an
//     interface that asks for it and the type implements that interface
//     (a call through the interface, a marker method, a value handed to a
//     standard-library parameter), and when its name is in reachedByName.
//     Code under benchmark/ is a root but is never reported, and neither is
//     the trailing count sentinel of an iota block;
//   - every exported field of an exported struct under internal/ named
//     *Options or *Config that no non-test code writes outside the
//     declaring package's defaulting code — a Default* function, or an
//     assignment of a constant inside the declaring package. Such a field
//     has one value in every binary and is a constant with a longer name;
//   - every entry of allowed that nothing needs: gone, reached without it,
//     or an option field that non-test code sets;
//   - every entry of allowed that no non-test code names and that test
//     files name only in its own package: it belongs in those tests. Test
//     files are not type-checked, so they are searched by spelling.
//
// Runs in about 3 s un-raced on the 2-vCPU reference box (17 s under
// -race), nearly all of it the one pass over the standard library's source.
func orphans(module string, srcs map[string]string, allowed map[string]string) ([]string, error) {
	g := &gateImporter{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Defs:       map[*ast.Ident]types.Object{},
		},
	}
	for p, src := range srcs {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(gateFset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ip := path.Join(module, path.Dir(p))
		g.files[ip] = append(g.files[ip], f)
	}
	var paths []string
	for ip := range g.files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := g.Import(ip); err != nil {
			return nil, err
		}
	}

	origin := func(o types.Object) types.Object {
		switch o := o.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return o
	}

	// Which option fields non-test code writes outside defaulting code.
	written := map[types.Object]bool{}
	deref := func(t types.Type) types.Type {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			return p.Elem()
		}
		return t
	}
	// derived: e is built from constants and fields of the option struct
	// itself (cfg.F = def.F, cfg.Dead = cfg.Suspect * 3), so it chooses
	// nothing a caller could have chosen differently.
	var derived func(e ast.Expr, owner types.Type) bool
	derived = func(e ast.Expr, owner types.Type) bool {
		if g.info.Types[e].Value != nil {
			return true
		}
		switch e := e.(type) {
		case *ast.ParenExpr:
			return derived(e.X, owner)
		case *ast.UnaryExpr:
			return derived(e.X, owner)
		case *ast.BinaryExpr:
			return derived(e.X, owner) && derived(e.Y, owner)
		case *ast.SelectorExpr:
			sel := g.info.Selections[e]
			return sel != nil && sel.Kind() == types.FieldVal && types.Identical(deref(sel.Recv()), owner)
		}
		return false
	}
	// write records the fields an assignment or literal element sets: the
	// selected field and, for cfg.Planner.Depth = 2, every field on the way.
	// rhs == nil means a value the gate cannot see (&cfg.F handed to a setter).
	write := func(lhs, rhs ast.Expr, owner types.Type, pkg *types.Package, inDefault bool) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok && g.info.Selections[sel] != nil {
			owner = deref(g.info.Selections[sel].Recv())
		}
		defaulting := inDefault || rhs != nil && owner != nil && derived(rhs, owner)
		for {
			id, _ := lhs.(*ast.Ident) // a composite-literal key, or the variable a selector chain ends in
			sel, _ := lhs.(*ast.SelectorExpr)
			if sel != nil {
				id, lhs = sel.Sel, sel.X
			}
			if f, ok := g.info.Uses[id].(*types.Var); ok && f.IsField() && !(f.Pkg() == pkg && defaulting) {
				written[origin(f)] = true
			}
			if sel == nil {
				return
			}
		}
	}
	for ip, files := range g.files {
		pkg := g.pkgs[ip]
		for _, f := range files {
			for _, d := range f.Decls {
				fn, _ := d.(*ast.FuncDecl)
				inDefault := fn != nil && strings.HasPrefix(strings.ToLower(fn.Name.Name), "default")
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						t := deref(g.info.Types[n].Type)
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								write(kv.Key, kv.Value, t, pkg, inDefault)
							} else if fld := st.Field(i); fld.Pkg() != pkg || !(inDefault || derived(el, t)) {
								written[fld] = true
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if len(n.Rhs) == len(n.Lhs) {
								write(lhs, n.Rhs[i], nil, pkg, inDefault)
							} else {
								write(lhs, nil, nil, pkg, inDefault)
							}
						}
					case *ast.IncDecStmt:
						write(n.X, n.X, nil, pkg, inDefault)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X, nil, nil, pkg, inDefault)
						}
					}
					return true
				})
			}
		}
	}

	// "pkg.Type.{A,B}" stands for pkg.Type.A and pkg.Type.B.
	group := allowed
	allowed = map[string]string{}
	for key, reason := range group {
		if i := strings.Index(key, "{"); i >= 0 && strings.HasSuffix(key, "}") {
			for _, member := range strings.Split(key[i+1:len(key)-1], ",") {
				allowed[key[:i]+member] = reason
			}
		} else {
			allowed[key] = reason
		}
	}

	// decl maps each package-level declaration and method to the syntax
	// that names what it needs; roots holds the init functions and the
	// package-level var specs with initializers.
	decl := map[types.Object]ast.Node{}
	var roots []ast.Node
	sentinel := map[types.Object]bool{}
	usesIota := func(n ast.Node) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
		return found
	}
	for _, files := range g.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, d)
					} else {
						decl[g.info.Defs[d.Name]] = d
					}
				case *ast.GenDecl:
					for i, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[g.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									decl[g.info.Defs[id]] = s
								}
							}
							if d.Tok == token.VAR && len(s.Values) > 0 {
								roots = append(roots, s)
							}
							if d.Tok == token.CONST && i > 0 && i == len(d.Specs)-1 && len(s.Values) == 0 && usesIota(d.Specs[0]) {
								sentinel[g.info.Defs[s.Names[0]]] = true
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if o = origin(o); decl[o] != nil && !reached[o] {
			reached[o] = true
			queue = append(queue, o)
		}
	}
	// A reached type implementing an interface that reached code names has
	// that interface's methods reached.
	var (
		concrete []*types.Named
		ifaces   []*types.Interface
		noted    = map[types.Type]bool{}
	)
	implement := func(n *types.Named, it *types.Interface) {
		ptr := types.NewPointer(n)
		if !types.Implements(ptr, it) {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if f, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); f != nil {
				mark(f)
			}
		}
	}
	// note records the interfaces t names: t itself, or those among its
	// element, parameter and result types.
	var note func(t types.Type)
	note = func(t types.Type) {
		if noted[t] {
			return
		}
		noted[t] = true
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
				for _, n := range concrete {
					implement(n, u)
				}
			}
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					note(tuple.At(i).Type())
				}
			}
		case *types.Pointer:
			note(u.Elem())
		case *types.Slice:
			note(u.Elem())
		case *types.Array:
			note(u.Elem())
		case *types.Chan:
			note(u.Elem())
		case *types.Map:
			note(u.Key())
			note(u.Elem())
		}
	}
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || g.info.Uses[id] == nil {
				return true
			}
			u := g.info.Uses[id]
			mark(u)
			note(u.Type())
			switch u := u.(type) {
			case *types.Func: // a method called through an interface names the interface
				if recv := u.Type().(*types.Signature).Recv(); recv != nil {
					note(recv.Type())
				}
			case *types.Var, *types.Const: // a value of a type reaches the type
				if n, ok := deref(u.Type()).(*types.Named); ok {
					mark(n.Obj())
				}
			}
			return true
		})
	}
	drain := func() {
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			visit(decl[o])
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			n := tn.Type().(*types.Named)
			concrete = append(concrete, n)
			for _, it := range ifaces {
				implement(n, it)
			}
			for i := 0; i < n.NumMethods(); i++ {
				if reachedByName[n.Method(i).Name()] {
					mark(n.Method(i))
				}
			}
		}
	}
	for _, ip := range paths {
		scope := g.pkgs[ip].Scope()
		switch {
		case g.pkgs[ip].Name() == "main":
			mark(scope.Lookup("main"))
		case ip == module:
			for _, name := range scope.Names() {
				if o := scope.Lookup(name); o.Exported() {
					mark(o)
				}
			}
		}
	}
	for _, n := range roots {
		visit(n)
	}
	drain()

	// The allowed entries are roots too, once the program's own roots have
	// shown which of them nothing else reaches. An entry naming an option
	// field is for the option rule below.
	var problems []string
	stale := func(key string) {
		problems = append(problems, fmt.Sprintf("allowedOrphans lists %s, which is now in use or gone: drop the entry", key))
	}
	byName := map[string][]*types.Package{}
	for _, pkg := range g.pkgs {
		byName[pkg.Name()] = append(byName[pkg.Name()], pkg)
	}
	resolve := func(key string) types.Object {
		parts := strings.Split(key, ".")
		for _, pkg := range byName[parts[0]] {
			o := pkg.Scope().Lookup(parts[1])
			if o != nil && len(parts) == 3 {
				o, _, _ = types.LookupFieldOrMethod(types.NewPointer(o.Type()), false, pkg, parts[2])
			}
			if o != nil {
				return o
			}
		}
		return nil
	}
	// Where test files name each allow-listed member, by spelling, and
	// which objects non-test code names.
	testDirs := map[string][]string{}
	for key := range allowed {
		testDirs[key[strings.LastIndex(key, ".")+1:]] = nil
	}
	for p, src := range srcs {
		if !strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(gateFset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		named := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, want := testDirs[id.Name]; want && !named[id.Name] {
					named[id.Name] = true
					testDirs[id.Name] = append(testDirs[id.Name], path.Dir(p))
				}
			}
			return true
		})
	}
	used := map[types.Object]bool{}
	for _, o := range g.info.Uses {
		used[origin(o)] = true
	}
	var extra []types.Object
	for key := range allowed {
		o := resolve(key)
		if o != nil && !used[origin(o)] {
			dir := strings.TrimPrefix(strings.TrimPrefix(o.Pkg().Path(), module), "/")
			dirs := testDirs[o.Name()]
			if len(dirs) > 0 && !slices.ContainsFunc(dirs, func(d string) bool { return d != cmp.Or(dir, ".") }) {
				problems = append(problems, fmt.Sprintf("allowedOrphans lists %s, which only its own package's tests use: move it into those tests and drop the entry", key))
			}
		}
		if f, ok := o.(*types.Var); ok && f.IsField() {
			continue
		}
		if o == nil || reached[origin(o)] {
			stale(key)
		}
		extra = append(extra, o)
	}
	for _, o := range extra {
		if o != nil {
			mark(o)
		}
	}
	drain()

	seen := map[string]bool{}
	report := func(o types.Object, key, what string) {
		seen[key] = true
		if allowed[key] == "" {
			problems = append(problems, fmt.Sprintf("%s: %s %s", gateFset.Position(o.Pos()), key, what))
		}
	}
	const dead = "is reached from no entry point; delete it, move it into the tests that use it, or add it to allowedOrphans with the reason"
	for o := range decl {
		if reached[o] || sentinel[o] || o.Name() == "main" || strings.HasPrefix(o.Pkg().Path(), module+"/benchmark") {
			continue
		}
		key := o.Pkg().Name() + "." + o.Name()
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			key = o.Pkg().Name() + "." + deref(sig.Recv().Type()).(*types.Named).Obj().Name() + "." + o.Name()
		}
		report(o, key, dead)
	}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		pkg := g.pkgs[ip]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					report(f, pkg.Name()+"."+name+"."+f.Name(), "is an option no non-test code sets outside its package's defaults: make it a constant, or add it to allowedOrphans with the reason")
				}
			}
		}
	}
	for key := range allowed {
		if f, ok := resolve(key).(*types.Var); ok && f.IsField() && !seen[key] {
			stale(key)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// TestNoOrphanExports runs the gate over the module. Code no entry point
// reaches reads as a supported path, drifts from the one in use
// (perf.XPrefixTime priced a GRU's overlap window at three products while
// the scheduler said two), and every refactor has to carry it; an option
// nothing sets doubles the configurations a reader has to consider.
func TestNoOrphanExports(t *testing.T) {
	srcs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			src, err := os.ReadFile(path)
			srcs[filepath.ToSlash(path)] = string(src)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := orphans("mlvfpga", srcs, allowedOrphans)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestOrphanGate feeds the gate synthetic sources, one rule per case.
func TestOrphanGate(t *testing.T) {
	const user = "package main\nimport \"m/internal/p\"\nfunc main() { p.Used() }\n"
	cases := []struct {
		name    string
		srcs    map[string]string
		allowed map[string]string
		want    []string // substrings, one per expected problem, in order
	}{
		{"exported and unmentioned is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Orphan() {}\n", "cmd/x/main.go": user},
			nil, []string{"p.Orphan is reached from no"}},
		{"mentioned only from a test file is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Probe() {}\n", "internal/p/p_test.go": "package p\nfunc init() { Probe() }\n", "cmd/x/main.go": user},
			nil, []string{"p.Probe is reached from no"}},
		{"a same-named function in another package is not a use",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\n", "internal/q/q.go": "package q\nfunc Used() {}\n", "cmd/x/main.go": user},
			nil, []string{"q.Used is reached from no"}},
		{"a method is matched by receiver: another type's used Dir does not cover it",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() string { return A{}.Dir() }\ntype A struct{}\nfunc (A) Dir() string { return \"\" }\ntype B struct{}\nfunc (B) Dir() string { return \"\" }\nvar _ = B{}\n", "cmd/x/main.go": user},
			nil, []string{"p.B.Dir is reached from no"}},
		{"a method is reached through an interface call; one whose interface only dead code names is not",
			map[string]string{"internal/p/p.go": "package p\ntype Clock interface{ Now() int }\ntype Wall struct{}\nfunc (Wall) Now() int { return 0 }\nfunc Read(c Clock) int { return c.Now() }\ntype Ticker interface{ Tick() }\ntype Metro struct{}\nfunc (Metro) Tick() {}\nfunc tick(t Ticker) { t.Tick() }\n",
				"cmd/x/main.go": "package main\nimport \"m/internal/p\"\nfunc main() { p.Read(p.Wall{}); _ = p.Metro{} }\n"},
			nil, []string{"p.Ticker is reached from no", "p.Metro.Tick is reached from no", "p.tick is reached from no"}},
		{"a marker method that only satisfies an interface reached code names is reached",
			map[string]string{"internal/p/p.go": "package p\ntype Node interface{ IsNode() }\ntype Lit struct{}\nfunc (Lit) IsNode() {}\nfunc Used() Node { return Lit{} }\n", "cmd/x/main.go": user},
			nil, nil},
		{"an unexported function only tests call is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc probe() {}\n", "internal/p/p_test.go": "package p\nfunc init() { probe() }\n", "cmd/x/main.go": user},
			nil, []string{"p.probe is reached from no"}},
		{"an exported function only dead code calls is reported with its caller",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Outer() { Inner() }\nfunc Inner() {}\n", "cmd/x/main.go": user},
			nil, []string{"p.Outer is reached from no", "p.Inner is reached from no"}},
		{"an init's and a var initializer's callees are reached; a var nothing reads is not",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc init() { register() }\nfunc register() {}\nvar table = build()\nfunc build() []int { return nil }\n", "cmd/x/main.go": user},
			nil, []string{"p.table is reached from no"}},
		{"benchmark/ is a root but never reported, and neither is an iota block's count sentinel",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc ForBench() {}\ntype K int\nconst (\n\tA K = iota\n\tB\n\tnumK\n)\nvar _ = []K{A, B}\n",
				"benchmark/main.go": "package main\nimport \"m/internal/p\"\nfunc main() { p.ForBench() }\nfunc unused() {}\n", "cmd/x/main.go": user},
			nil, nil},
		{"methods the runtime reaches by name are not reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() T { return 0 }\ntype T int\nfunc (T) MarshalJSON() ([]byte, error) { return nil, nil }\nfunc (*T) UnmarshalJSON([]byte) error { return nil }\nfunc (T) String() string { return \"\" }\nfunc (T) Error() string { return \"\" }\nfunc (T) Unwrap() error { return nil }\n", "cmd/x/main.go": user},
			nil, nil},
		{"an allow-listed oracle's private helpers are reached through its entry",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Oracle() int { return helper() }\nfunc helper() int { return 1 }\nfunc stray() {}\n", "cmd/x/main.go": user},
			map[string]string{"p.Oracle": "reference"}, []string{"p.stray is reached from no"}},
		{"an allow-listed orphan only its own package's tests use is reported; one another package's tests use passes",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Probe() {}\nfunc Oracle() {}\n", "internal/p/p_test.go": "package p\nfunc init() { Probe(); Oracle() }\n",
				"internal/q/q_test.go": "package q\nimport \"m/internal/p\"\nfunc init() { p.Oracle() }\n", "cmd/x/main.go": user},
			map[string]string{"p.Probe": "reference", "p.Oracle": "reference"}, []string{"allowedOrphans lists p.Probe, which only its own package's tests use"}},
		{"an allow-listed orphan passes, grouped or single; a stale entry is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\ntype T int\nfunc (T) Oracle() {}\nfunc (T) Twin() {}\nfunc (T) Third() {}\n", "cmd/x/main.go": user},
			map[string]string{"p.T.{Oracle,Twin}": "reference", "p.T.Third": "reference", "p.Used": "stale"}, []string{"allowedOrphans lists p.Used"}},
		{"an option written only by its package's defaults is reported: a Default* function, a constant clamp, a copy of the default",
			map[string]string{"internal/p/p.go": "package p\ntype Options struct{ Depth, Cap, Budget, Set int }\nfunc DefaultOptions() Options { return Options{Depth: 2, Cap: 8, Budget: 4} }\nfunc Used(o Options) Options {\n\tif o.Cap <= 0 {\n\t\to.Cap = 8\n\t}\n\tif o.Budget <= 0 {\n\t\to.Budget = DefaultOptions().Budget\n\t}\n\treturn o\n}\n",
				"cmd/x/main.go": "package main\nimport \"m/internal/p\"\nfunc main() { o := p.DefaultOptions(); o.Set = 3; p.Used(o) }\n"},
			nil, []string{"p.Options.Depth is an option", "p.Options.Cap is an option", "p.Options.Budget is an option"}},
		{"an option a test sets is still reported; one a nested write reaches is not",
			map[string]string{"internal/p/p.go": "package p\ntype Inner struct{ N int }\ntype Config struct {\n\tKnob int\n\tIn   Inner\n}\nfunc Used(Config) {}\n", "internal/p/p_test.go": "package p\nfunc init() { Used(Config{Knob: 1}) }\n",
				"cmd/x/main.go": "package main\nimport \"m/internal/p\"\nfunc main() { var c p.Config; c.In.N = 1; p.Used(c) }\n"},
			nil, []string{"p.Config.Knob is an option"}},
		{"the facade's exported names are roots; its unexported dead code is reported",
			map[string]string{"lib.go": "package m\nfunc Facade() { helper() }\nfunc helper() {}\nfunc unused() {}\n"},
			nil, []string{"m.unused is reached from no"}},
	}
	for _, c := range cases {
		got, err := orphans("m", c.srcs, c.allowed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: problems %q, want %d matching %q", c.name, got, len(c.want), c.want)
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], c.want[i]) {
				t.Errorf("%s: problem %q, want it to mention %q", c.name, got[i], c.want[i])
			}
		}
	}
}
