package rtl

import (
	"errors"
	"testing"
)

// FuzzParse checks that the parser never panics; that a syntax error's
// line:col is the position of its offset counted over src; and that
// whenever a design parses cleanly the writer's rendering is a fixed point
// (WriteModule(Parse(WriteModule(m))) == WriteModule(m)) that keeps the
// module's name and item counts, and that no slab element was handed out
// twice (checkCarving). Run
// `go test -fuzz=FuzzParse ./internal/rtl` to explore beyond the seed
// corpus; the seeds alone run as regression tests under plain `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"module m(); endmodule",
		adderDesign,
		chainDesign,
		"module m #(parameter W=8)(input [W-1:0] a, output reg [W-1:0] q);\n" +
			"  always @(posedge a) q <= a + 1; endmodule",
		"module m(input a); DSP48E2 d (.A(a), .B(), .P()); endmodule",
		"module m(); assign {a, b[3:0]} = {2{c}} ^ (d ? e : f); endmodule",
		"module m(\\escaped.id ); endmodule",
		"module m(); wire [63:0] w; assign w = 64'hDEAD_BEEF_CAFE_F00D; endmodule",
		"module m(); // comment\n /* block */ endmodule",
		"module", "endmodule", "module m(input", "assign x = ;", "{{{", "16'h", "\\",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mods, err := Parse(src)
		if err != nil {
			checkErrorPosition(t, src, err)
			return // rejection is fine; panics are not
		}
		for _, m := range mods {
			rendered := WriteModule(m)
			again, err := Parse(rendered)
			if err != nil {
				t.Fatalf("writer output does not re-parse: %v\nmodule %s rendered as:\n%s",
					err, m.Name, rendered)
			}
			if len(again) != 1 || again[0].Name != m.Name {
				t.Fatalf("round trip changed module identity: %q", m.Name)
			}
			if len(again[0].Ports) != len(m.Ports) ||
				len(again[0].Assigns) != len(m.Assigns) ||
				len(again[0].Instances) != len(m.Instances) {
				t.Fatalf("round trip changed item counts for %q", m.Name)
			}
			if twice := WriteModule(again[0]); twice != rendered {
				t.Fatalf("rendering is not a fixed point for %q:\n%s\nre-rendered as:\n%s", m.Name, rendered, twice)
			}
			checkCarving(t, m)
		}
	})
}

// checkCarving fails when slab carving handed one element out twice: an
// AST node reachable from two places (other than a declaration group's
// shared range and a guard chain's shared prefix, whose "else" negation
// wraps the "if" condition), or an instance whose Order is not exactly its
// connections' keys.
func checkCarving(t *testing.T, m *Module) {
	t.Helper()
	seen := map[Expr]bool{}
	var walk func(e Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		if seen[e] {
			t.Fatalf("module %s: node %s reached twice", m.Name, e)
		}
		seen[e] = true
		switch v := e.(type) {
		case *Unary:
			walk(v.X)
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Cond:
			walk(v.If)
			walk(v.Then)
			walk(v.Else)
		case *Index:
			walk(v.X)
			walk(v.At)
		case *Slice:
			walk(v.X)
			walk(v.Msb)
			walk(v.Lsb)
		case *Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case *Repl:
			walk(v.Count)
			walk(v.X)
		}
	}
	walkRange := func(r Range) {
		if r.Msb != nil && !seen[r.Msb] {
			walk(r.Msb)
			walk(r.Lsb)
		}
	}
	for _, p := range m.Params {
		walk(p.Default)
	}
	for _, p := range m.Ports {
		walkRange(p.Range)
	}
	for _, n := range m.Nets {
		walkRange(n.Range)
	}
	for _, a := range m.Assigns {
		walk(a.LHS)
		walk(a.RHS)
	}
	for _, alw := range m.Alwayses {
		for _, sa := range alw.Body {
			for _, g := range sa.Guard {
				if u, ok := g.(*Unary); ok && u.Op == "!" && seen[u.X] && !seen[u] {
					seen[u] = true // an else branch's negated condition
				} else if !seen[g] {
					walk(g)
				}
			}
			walk(sa.LHS)
			walk(sa.RHS)
		}
	}
	for _, inst := range m.Instances {
		for _, e := range inst.Params {
			walk(e)
		}
		ports := map[string]bool{}
		for _, c := range inst.Conns {
			if ports[c.Port] {
				t.Fatalf("module %s instance %s: port %q connected twice in %v", m.Name, inst.Name, c.Port, inst.Conns)
			}
			ports[c.Port] = true
			walk(c.Expr)
		}
	}
}

// FuzzLexer checks that the lexer terminates without panicking, that its
// spans tile src in order — each span lexes alone to one token of its
// kind, and only whitespace and comments lie between spans — and that a
// lexical error's line:col is the position of its offset counted over src.
func FuzzLexer(f *testing.F) {
	f.Add("module m(); endmodule")
	f.Add("8'hFF + 4'b1010")
	f.Add("\\weird id /* x */ // y")
	f.Add("a\n  /* unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexAll(src)
		if err != nil {
			checkErrorPosition(t, src, err)
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatal("token stream must end with EOF")
		}
		if len(toks) > len(src)+1 {
			t.Fatalf("more tokens (%d) than bytes (%d)", len(toks), len(src))
		}
		prev := 0
		for _, tok := range toks {
			begin, end := int(tok.begin), int(tok.end)
			if tok.kind != tokEOF && begin > 0 && src[begin-1] == '\\' {
				begin-- // an escaped identifier's span starts after its backslash
			}
			if begin < prev || end < begin || end > len(src) {
				t.Fatalf("span [%d,%d) out of order after %d", tok.begin, tok.end, prev)
			}
			if gap, err := lexAll(src[prev:begin]); err != nil || len(gap) != 1 {
				t.Fatalf("tokens or an error between spans: %q", src[prev:begin])
			}
			if tok.kind != tokEOF {
				alone, err := lexAll(src[begin:end])
				if err != nil || len(alone) != 2 || alone[0].kind != tok.kind ||
					src[begin:end][alone[0].begin:alone[0].end] != src[tok.begin:tok.end] {
					t.Fatalf("span %q does not lex alone to its %v token", src[begin:end], tok.kind)
				}
			}
			prev = end
		}
	})
}

// checkErrorPosition fails unless err is a SyntaxError whose line:col is
// its offset's position counted byte by byte, newline by newline.
func checkErrorPosition(t *testing.T, src string, err error) {
	t.Helper()
	var se *SyntaxError
	if !errors.As(err, &se) {
		return // semantic errors carry no position
	}
	line, col := 1, 1
	for i := 0; i < se.off; i++ {
		if src[i] == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	if se.Line != line || se.Col != col {
		t.Fatalf("%v: offset %d counts as %d:%d", err, se.off, line, col)
	}
}
