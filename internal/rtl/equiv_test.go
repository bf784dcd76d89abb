package rtl

import (
	"errors"
	"testing"
)

// hashOf is structuralHash without a shared memo.
func hashOf(d *Design, em *ElabModule) string {
	return newHasher().hash(em)
}

func elab(t *testing.T, d *Design, name string) *ElabModule {
	t.Helper()
	em, err := d.Elaborate(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return em
}

func TestStructuralHashIdenticalModules(t *testing.T) {
	// Same structure, different module and net names.
	d, err := ParseDesign(`
		module alpha(input [7:0] a, output [7:0] y);
		  wire [7:0] inner;
		  assign inner = a + 8'd1;
		  assign y = inner;
		endmodule
		module beta(input [7:0] a, output [7:0] y);
		  wire [7:0] other;
		  assign other = a + 8'd1;
		  assign y = other;
		endmodule
		module top(input [7:0] x, output [7:0] p, output [7:0] q);
		  alpha u0 (.a(x), .y(p));
		  beta  u1 (.a(x), .y(q));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	ha := hashOf(d, elab(t, d, "alpha"))
	hb := hashOf(d, elab(t, d, "beta"))
	if ha != hb {
		t.Error("alpha and beta must share a structural hash")
	}
}

func TestStructuralHashDifferentLogic(t *testing.T) {
	d, err := ParseDesign(`
		module inc(input [7:0] a, output [7:0] y); assign y = a + 8'd1; endmodule
		module dec(input [7:0] a, output [7:0] y); assign y = a - 8'd1; endmodule
		module top(input [7:0] x, output [7:0] p, output [7:0] q);
		  inc u0 (.a(x), .y(p));
		  dec u1 (.a(x), .y(q));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	if hashOf(d, elab(t, d, "inc")) == hashOf(d, elab(t, d, "dec")) {
		t.Error("inc and dec must not collide")
	}
}

func TestStructuralHashHierarchy(t *testing.T) {
	// Two wrappers around structurally identical children with different
	// names must still hash equal.
	d, err := ParseDesign(`
		module c1(input a, output y); assign y = ~a; endmodule
		module c2(input a, output y); assign y = ~a; endmodule
		module w1(input x, output z); c1 u (.a(x), .y(z)); endmodule
		module w2(input x, output z); c2 u (.a(x), .y(z)); endmodule
		module top(input i, output o1, output o2);
		  w1 a (.x(i), .z(o1));
		  w2 b (.x(i), .z(o2));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	if hashOf(d, elab(t, d, "w1")) != hashOf(d, elab(t, d, "w2")) {
		t.Error("wrappers of identical children must hash equal")
	}
}

func TestEquivalentStructural(t *testing.T) {
	d, err := ParseDesign(`
		module a(input [3:0] x, output [3:0] y); assign y = x ^ 4'hF; endmodule
		module b(input [3:0] x, output [3:0] y); assign y = x ^ 4'hF; endmodule
		module top(input [3:0] i, output [3:0] o); a u (.x(i), .y(o)); endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	eq, err := c.Equivalent(elab(t, d, "a"), elab(t, d, "b"))
	if err != nil || !eq {
		t.Errorf("Equivalent = %v, %v; want true", eq, err)
	}
}

func TestEquivalentFunctionalNotStructural(t *testing.T) {
	// x+x and x<<1 are functionally identical but structurally different:
	// only random simulation can join them.
	d, err := ParseDesign(`
		module dbl1(input [7:0] x, output [8:0] y); assign y = {1'b0,x} + {1'b0,x}; endmodule
		module dbl2(input [7:0] x, output [8:0] y); assign y = {x, 1'b0}; endmodule
		module top(input [7:0] i, output [8:0] o); dbl1 u (.x(i), .y(o)); endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	a, b := elab(t, d, "dbl1"), elab(t, d, "dbl2")
	if hashOf(d, a) == hashOf(d, b) {
		t.Fatal("test premise broken: hashes collide")
	}
	eq, err := c.Equivalent(a, b)
	if err != nil || !eq {
		t.Errorf("Equivalent = %v, %v; want true via simulation", eq, err)
	}
}

func TestNotEquivalent(t *testing.T) {
	d, err := ParseDesign(`
		module inc(input [7:0] x, output [7:0] y); assign y = x + 8'd1; endmodule
		module dec(input [7:0] x, output [7:0] y); assign y = x - 8'd1; endmodule
		module top(input [7:0] i, output [7:0] o); inc u (.x(i), .y(o)); endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	eq, err := c.Equivalent(elab(t, d, "inc"), elab(t, d, "dec"))
	if err != nil || eq {
		t.Errorf("Equivalent = %v, %v; want false", eq, err)
	}
}

func TestNotEquivalentInterfaceMismatch(t *testing.T) {
	d, err := ParseDesign(`
		module a(input [7:0] x, output [7:0] y); assign y = x; endmodule
		module b(input [3:0] x, output [3:0] y); assign y = x; endmodule
		module cports(input [7:0] z, output [7:0] y); assign y = z; endmodule
		module top(input [7:0] i, output [7:0] o); a u (.x(i), .y(o)); endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	if eq, _ := c.Equivalent(elab(t, d, "a"), elab(t, d, "b")); eq {
		t.Error("different widths must not be equivalent")
	}
	if eq, _ := c.Equivalent(elab(t, d, "a"), elab(t, d, "cports")); eq {
		t.Error("different port names must not be equivalent")
	}
}

func TestEquivalentSequential(t *testing.T) {
	d, err := ParseDesign(`
		module r1(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule
		module r2(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) begin q <= d; end
		endmodule
		module r3(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d + 8'd1;
		endmodule
		module top(input clk, input [7:0] i, output [7:0] o);
		  r1 u (.clk(clk), .d(i), .q(o));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	if eq, err := c.Equivalent(elab(t, d, "r1"), elab(t, d, "r2")); err != nil || !eq {
		t.Errorf("r1/r2: %v, %v; want equivalent", eq, err)
	}
	if eq, err := c.Equivalent(elab(t, d, "r1"), elab(t, d, "r3")); err != nil || eq {
		t.Errorf("r1/r3: %v, %v; want not equivalent", eq, err)
	}
}

func TestEquivalentBlackboxStructuralOnly(t *testing.T) {
	d, err := ParseDesign(`
		module m1(input [17:0] a, input [17:0] b, output [47:0] p);
		  DSP48E2 u (.A(a), .B(b), .P(p));
		endmodule
		module m2(input [17:0] a, input [17:0] b, output [47:0] p);
		  DSP48E2 u0 (.A(a), .B(b), .P(p));
		endmodule
		module m3(input [17:0] a, input [17:0] b, output [47:0] p);
		  DSP48E2 u0 (.A(b), .B(a), .P(p));
		endmodule
		module top(input [17:0] x, output [47:0] y);
		  m1 u (.a(x), .b(x), .p(y));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	if eq, err := c.Equivalent(elab(t, d, "m1"), elab(t, d, "m2")); err != nil || !eq {
		t.Errorf("identical blackbox wrappers: %v, %v; want equivalent", eq, err)
	}
	// Swapped operands are structurally different and cannot be simulated
	// (simulation reports a wrapped ErrNotSimulable): the checker must
	// conservatively say no rather than fail.
	m1, m3 := elab(t, d, "m1"), elab(t, d, "m3")
	if _, err := c.simEquivalent(m1, m3, 1); !errors.Is(err, ErrNotSimulable) || err == ErrNotSimulable {
		t.Errorf("simEquivalent = %v, want a wrapped ErrNotSimulable", err)
	}
	if eq, err := c.Equivalent(m1, m3); err != nil || eq {
		t.Errorf("swapped blackbox conns: %v, %v; want not equivalent", eq, err)
	}
	if st := c.Stats(); st.SimRuns != 1 {
		t.Errorf("SimRuns = %d, want 1: the pair must reach simulation", st.SimRuns)
	}
}

// statsSrc has three modules: dbl1 and dbl2 are functionally identical but
// structurally different (only simulation joins them); dbl3 is structurally
// identical to dbl2 under another name, so (dbl1, dbl3) lands on the same
// hash-pair cache entry as (dbl1, dbl2).
const statsSrc = `
	module dbl1(input [7:0] x, output [8:0] y); assign y = {1'b0,x} + {1'b0,x}; endmodule
	module dbl2(input [7:0] x, output [8:0] y); assign y = {x, 1'b0}; endmodule
	module dbl3(input [7:0] x, output [8:0] y); assign y = {x, 1'b0}; endmodule
	module top(input [7:0] i, output [8:0] o); dbl1 u (.x(i), .y(o)); endmodule`

func TestEquivStatsCounters(t *testing.T) {
	d, err := ParseDesign(statsSrc, "top")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEquivChecker(d, 1)
	a, b, b2 := elab(t, d, "dbl1"), elab(t, d, "dbl2"), elab(t, d, "dbl3")

	if eq, err := c.Equivalent(a, a); err != nil || !eq {
		t.Fatalf("self query: %v, %v", eq, err)
	}
	if st := c.Stats(); st.Queries != 1 || st.StructuralHits != 1 || st.SimRuns != 0 {
		t.Fatalf("after self query: %+v", st)
	}

	if eq, err := c.Equivalent(b, b2); err != nil || !eq {
		t.Fatalf("hash-equal query: %v, %v", eq, err)
	}
	if st := c.Stats(); st.StructuralHits != 2 || st.SimRuns != 0 {
		t.Fatalf("identical structure must hit the hash fast path: %+v", st)
	}

	// First structurally-different pair simulates...
	if eq, err := c.Equivalent(a, b); err != nil || !eq {
		t.Fatalf("sim query: %v, %v", eq, err)
	}
	if st := c.Stats(); st.SimRuns != 1 || st.CacheHits != 0 {
		t.Fatalf("first miss must simulate: %+v", st)
	}
	// ...the repeat hits the memo, in either argument order...
	if eq, err := c.Equivalent(b, a); err != nil || !eq {
		t.Fatalf("repeat query: %v, %v", eq, err)
	}
	// ...and so does a structurally-identical stand-in for either side.
	if eq, err := c.Equivalent(a, b2); err != nil || !eq {
		t.Fatalf("stand-in query: %v, %v", eq, err)
	}
	st := c.Stats()
	if st.SimRuns != 1 || st.CacheHits != 2 {
		t.Errorf("repeats must be cache hits, not new simulations: %+v", st)
	}
	if st.Queries != 5 {
		t.Errorf("Queries = %d, want 5", st.Queries)
	}
}

// TestEquivalentParallelMatchesSequential pins the sharding contract: the
// verdict is a pure function of (seed, pair), independent of Parallelism.
func TestEquivalentParallelMatchesSequential(t *testing.T) {
	src := statsSrc + `
	module inc(input [7:0] x, output [8:0] y); assign y = {1'b0,x} + 9'd1; endmodule`
	pairs := [][2]string{{"dbl1", "dbl2"}, {"dbl1", "inc"}, {"dbl2", "inc"}}
	var want []bool
	for _, par := range []int{1, 8} {
		d, err := ParseDesign(src, "top")
		if err != nil {
			t.Fatal(err)
		}
		c := NewEquivChecker(d, 7)
		c.Parallelism = par
		var got []bool
		for _, p := range pairs {
			eq, err := c.Equivalent(elab(t, d, p[0]), elab(t, d, p[1]))
			if err != nil {
				t.Fatalf("parallelism %d, pair %v: %v", par, p, err)
			}
			got = append(got, eq)
		}
		if par == 1 {
			want = got
			if !want[0] || want[1] || want[2] {
				t.Fatalf("sequential verdicts %v, want [true false false]", want)
			}
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("pair %v: parallelism %d says %v, sequential says %v",
					pairs[i], par, got[i], want[i])
			}
		}
	}
}

func TestEquivalentParameterized(t *testing.T) {
	d, err := ParseDesign(`
		module pas #(parameter W = 8) (input [W-1:0] x, output [W-1:0] y);
		  assign y = x;
		endmodule
		module top(input [7:0] i, output [7:0] o, output [3:0] o4, input [3:0] i4);
		  pas #(.W(8)) u0 (.x(i), .y(o));
		  pas #(.W(4)) u1 (.x(i4), .y(o4));
		endmodule`, "top")
	if err != nil {
		t.Fatal(err)
	}
	em := elab(t, d, "top")
	c := NewEquivChecker(d, 1)
	w8, w4 := em.Children[0].Elab, em.Children[1].Elab
	if eq, _ := c.Equivalent(w8, w4); eq {
		t.Error("different parameterizations must not be equivalent")
	}
	if eq, _ := c.Equivalent(w8, w8); !eq {
		t.Error("same elaboration must be equivalent")
	}
}
