package mlvfpga

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedOrphans are exported names only tests reference, each with the
// reason it is exported anyway. Keyed "pkg.Name" or "pkg.Type.Method".
var allowedOrphans = map[string]string{
	"perf.Cosim":                "the instruction-level timing model: an independent oracle tests hold the analytic model against",
	"scaleout.OverlapMVMs":      "a measurement of the reordered schedule that TestMeasuredOverlapMatchesModel compares with the model's gate table",
	"cluster.FakeClock.Advance": "the test fake's only control: simulation harnesses outside the package drive time through it",
	"accel.Machine.RunBatch":    "the window-at-a-time batch executor: the reference the step-program serving path is held bit-identical to",
	"kernels.ReferenceMLP":      "the float64 MLP the AS ISA kernel's outputs are compared with",
	"wdsl.File.Print":           "the parse → print → parse oracle FuzzParseMLW closes the loop with",
	"rtl.WriteDesign":           "the design printer: the parse → write → parse round trip the rtl and bwrtl tests hold the frontend to",
	"partition.Result.Ladder":   "the shard ladder FuzzBisect's monotonicity property reads",
	"bfp.MustCodec":             "constructor of the unpacked reference codec below",
	"bfp.Codec.Quantize":        "the unpacked codec: the oracle FuzzPackedMatVec and the kernel tests hold the lane-packed mat-vec to",
	"bfp.Codec.QuantizeVector":  "unpacked oracle, as bfp.Codec.Quantize",
	"bfp.Block.Dequantize":      "unpacked oracle, as bfp.Codec.Quantize",
}

// orphanExports parses Go sources (slash-separated module-relative path →
// content) and reports every exported top-level identifier or method
// declared in non-test code under internal/ that no non-test file
// mentions, except names in allowed — and every allowed entry that is no
// longer such an orphan. Methods named MarshalJSON/UnmarshalJSON are
// exempt by rule: encoding/json reaches them, no one names them. Matching
// is by bare name, so a method shares its use count with every same-named
// identifier in the module — coarse, but it never reports a name in use.
func orphanExports(srcs map[string]string, allowed map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	for path, src := range srcs {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(path, "internal/") {
			add := func(id *ast.Ident, recv string) {
				declared[id] = true
				jsonHook := recv != "" && (id.Name == "MarshalJSON" || id.Name == "UnmarshalJSON")
				if id.IsExported() && !jsonHook {
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
	}

	var problems []string
	seen := map[string]bool{}
	for _, d := range decls {
		if uses[d.key[strings.LastIndex(d.key, ".")+1:]] > 0 {
			continue
		}
		seen[d.key] = true
		if allowed[d.key] == "" {
			problems = append(problems, fmt.Sprintf("%s: %s is exported but only tests mention it; delete it, unexport it, or add it to allowedOrphans with the reason",
				fset.Position(d.pos), d.key))
		}
	}
	for key := range allowed {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("allowedOrphans lists %s, which is now in use or gone: drop the entry", key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// TestNoOrphanExports runs the gate over the module. An exported name
// nothing runs reads as a supported path, drifts from the one in use
// (perf.XPrefixTime priced a GRU's overlap window at three products while
// the scheduler said two), and every refactor has to carry it.
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
	problems, err := orphanExports(srcs, allowedOrphans)
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
			nil, []string{"p.Orphan is exported"}},
		{"mentioned only from a test file is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\nfunc Probe() {}\n", "internal/p/p_test.go": "package p\nfunc init() { Probe() }\n", "cmd/x/main.go": user},
			nil, []string{"p.Probe is exported"}},
		{"a MarshalJSON method is not",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() T { return 0 }\ntype T int\nfunc (T) MarshalJSON() ([]byte, error) { return nil, nil }\nfunc (*T) UnmarshalJSON([]byte) error { return nil }\n", "cmd/x/main.go": user},
			nil, nil},
		{"an allow-listed orphan passes, a stale entry is reported",
			map[string]string{"internal/p/p.go": "package p\nfunc Used() {}\ntype T int\nfunc (T) Oracle() {}\n", "cmd/x/main.go": user},
			map[string]string{"p.T.Oracle": "reference", "p.Used": "stale"}, []string{"allowedOrphans lists p.Used"}},
		{"names outside internal/ are not gated",
			map[string]string{"lib.go": "package m\nfunc Facade() {}\n"},
			nil, nil},
	}
	for _, c := range cases {
		got, err := orphanExports(c.srcs, c.allowed)
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
