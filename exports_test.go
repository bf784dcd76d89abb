package mlvfpga

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// gatedPackages are the packages whose exported surface must be in use.
// ROADMAP item I widens this list; a package joins once it is clean.
var gatedPackages = []string{
	"internal/scaleout",
	"internal/perf",
	"internal/netmodel",
	"internal/cluster",
}

// allowedOrphans are exported names only tests reference, each with the
// reason it is exported anyway. Keyed "pkg.Name" or "pkg.Type.Method".
var allowedOrphans = map[string]string{
	"perf.Cosim":                "the instruction-level timing model: an independent oracle tests hold the analytic model against",
	"scaleout.OverlapMVMs":      "a measurement of the reordered schedule that TestMeasuredOverlapMatchesModel compares with the model's gate table",
	"cluster.FakeClock.Advance": "the test fake's only control: simulation harnesses outside the package drive time through it",
}

// TestNoOrphanExports fails on an exported top-level identifier or method
// declared in non-test code of a gated package that no non-test file in
// the module mentions. Such a name is API nothing runs: it reads as a
// supported path, drifts from the one in use (perf.XPrefixTime priced a
// GRU's overlap window at three products while the scheduler said two),
// and every refactor has to carry it. Matching is by bare name, so a
// method shares its use count with every same-named identifier in the
// module — coarse, but it never reports a name that is in use.
func TestNoOrphanExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	gated := func(dir string) bool {
		for _, p := range gatedPackages {
			if dir == p {
				return true
			}
		}
		return false
	}

	files := 0
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		if gated(filepath.ToSlash(filepath.Dir(path))) {
			add := func(id *ast.Ident, recv string) {
				declared[id] = true
				if id.IsExported() {
					decls = append(decls, decl{f.Name.Name + "." + recv + id.Name, id.Pos()})
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil && len(d.Recv.List) == 1 {
						typ := d.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							recv = id.Name + "."
						}
					}
					add(d.Name, recv)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, "")
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, "")
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || len(decls) == 0 {
		t.Fatalf("parsed %d files, found %d exported declarations", files, len(decls))
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > 0 {
			continue
		}
		seen[d.key] = true
		if allowedOrphans[d.key] == "" {
			t.Errorf("%s: %s is exported but only tests mention it; delete it, unexport it, or add it to allowedOrphans with the reason",
				fset.Position(d.pos), d.key)
		}
	}
	for key := range allowedOrphans {
		if !seen[key] {
			t.Errorf("allowedOrphans lists %s, which is now in use or gone: drop the entry", key)
		}
	}
}
