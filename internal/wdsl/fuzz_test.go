package wdsl

import (
	"testing"
)

// FuzzParseMLW is the parser's crash-freedom and canonicalization fuzz
// target: Parse must never panic on arbitrary bytes, and whenever it
// accepts an input, the printed form must reparse to an equal AST and the
// printer must be a fixpoint on its own output.
func FuzzParseMLW(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		exampleSrc,
		`model "m" { layer lstm hidden=64 steps=2 }`,
		`model "a" { layer attention hidden=32 steps=4 }`,
		`model "s" { layer mlp dim=8 layers=2 act=tanh }`,
		`tenant "t" class=batch max_leases=3 weight=2`,
		"scenario { duration = 1s devices = 1000 }",
		"scenario { seed = 9 duration = 2m30s sample = 12.5% queue_cap = 4 }",
		"scenario { duration = 1s devices { XCVU37P = 3 XCKU115 = 1 } }",
		"model \"m\" { layer gru hidden=4 steps=1 }\nscenario { duration = 5s deploy \"m\"\ntraffic diurnal rate=7/s trough=30% period=2s model=\"m\"\nstorm kill at=1s devices=1 for=500ms }",
		`tenant "q" g="quo\"ted\n" r=40/s`,
		"model {",
		"scenario { devices = }",
		"tenant \"t\" a=12q b=",
		"model \"m\" { layer cnn }",
		"\"stray\" string",
		"scenario { storm flood at=1s }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := Parse(src) // must not panic, whatever the bytes
		if err != nil {
			var perr *Error
			switch e := err.(type) {
			case *Error:
				perr = e
			default:
				t.Fatalf("Parse error is %T, want *wdsl.Error: %v", err, err)
			}
			if perr.Pos.Line < 1 || perr.Pos.Col < 1 || perr.Production == "" {
				t.Fatalf("diagnostic missing position or production: %+v", perr)
			}
			return
		}
		p1 := f1.Print()
		f2, err := Parse(p1)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted:\n%s", err, src, p1)
		}
		if !sameAST(f1, f2) {
			t.Fatalf("print→parse changed the AST\ninput: %q\nprinted:\n%s", src, p1)
		}
		if p2 := f2.Print(); p2 != p1 {
			t.Fatalf("printer not a fixpoint\nfirst:\n%s\nsecond:\n%s", p1, p2)
		}
		// Compile must be panic-free too; its errors are positioned.
		if _, cerr := Compile(f1); cerr != nil {
			var perr *Error
			if e, ok := cerr.(*Error); ok {
				perr = e
			} else {
				t.Fatalf("Compile error is %T, want *wdsl.Error: %v", cerr, cerr)
			}
			if perr.Pos.Line < 1 || perr.Pos.Col < 1 || perr.Production == "" {
				t.Fatalf("compile diagnostic missing position or production: %+v", perr)
			}
		}
	})
}
