package rtl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// flatSim flattens (top, overrides) and prepares a simulator for it.
func flatSim(d *Design, top string, overrides map[string]uint64) (*Simulator, error) {
	flat, err := d.Flatten(top, overrides)
	if err != nil {
		return nil, err
	}
	return NewFlatSimulator(flat)
}

func newSim(t *testing.T, src, top string) *Simulator {
	t.Helper()
	d, err := ParseDesign(src, top)
	if err != nil {
		t.Fatal(err)
	}
	s, err := flatSim(d, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimCombinational(t *testing.T) {
	s := newSim(t, adderDesign, "top")
	if err := s.SetInput("x1", 200); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInput("x2", 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Peek("s")
	if err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Errorf("200+100 = %d, want 300", got)
	}
}

func TestSimRegister(t *testing.T) {
	s := newSim(t, `
		module reg8(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule`, "reg8")
	s.SetInput("d", 0x5A)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("q"); v != 0 {
		t.Errorf("register loaded before clock edge: %x", v)
	}
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("q"); v != 0x5A {
		t.Errorf("q after tick = %x, want 5a", v)
	}
}

func TestSimGuardedRegister(t *testing.T) {
	s := newSim(t, `
		module m(input clk, input rst, input en, input [3:0] d, output reg [3:0] q);
		  always @(posedge clk) begin
		    if (rst) q <= 4'd0;
		    else if (en) q <= d;
		  end
		endmodule`, "m")
	s.SetInput("d", 7)
	s.SetInput("en", 1)
	s.SetInput("rst", 0)
	s.Tick()
	if v, _ := s.Peek("q"); v != 7 {
		t.Fatalf("enabled load failed: %d", v)
	}
	s.SetInput("en", 0)
	s.SetInput("d", 3)
	s.Tick()
	if v, _ := s.Peek("q"); v != 7 {
		t.Errorf("disabled load overwrote: %d", v)
	}
	s.SetInput("rst", 1)
	s.Tick()
	if v, _ := s.Peek("q"); v != 0 {
		t.Errorf("reset failed: %d", v)
	}
}

func TestSimHierarchyPipeline(t *testing.T) {
	// Two chained registers through hierarchy: data appears after 2 ticks.
	s := newSim(t, `
		module stage(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule
		module pipe(input clk, input [7:0] in, output [7:0] out);
		  wire [7:0] mid;
		  stage s0 (.clk(clk), .d(in), .q(mid));
		  stage s1 (.clk(clk), .d(mid), .q(out));
		endmodule`, "pipe")
	s.SetInput("in", 42)
	s.Tick()
	if v, _ := s.Peek("out"); v != 0 {
		t.Errorf("pipeline output after 1 tick = %d, want 0", v)
	}
	s.Tick()
	if v, _ := s.Peek("out"); v != 42 {
		t.Errorf("pipeline output after 2 ticks = %d, want 42", v)
	}
}

func TestSimSliceAndConcatLHS(t *testing.T) {
	s := newSim(t, `
		module m(input [7:0] a, output [7:0] y, output hi, output lo);
		  assign y[3:0] = a[7:4];
		  assign y[7:4] = a[3:0];
		  assign {hi, lo} = {a[7], a[0]};
		endmodule`, "m")
	s.SetInput("a", 0xA5)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("y"); v != 0x5A {
		t.Errorf("nibble swap = %x, want 5a", v)
	}
	if hi, _ := s.Peek("hi"); hi != 1 {
		t.Errorf("hi = %d", hi)
	}
	if lo, _ := s.Peek("lo"); lo != 1 {
		t.Errorf("lo = %d", lo)
	}
}

func TestSimOperators(t *testing.T) {
	s := newSim(t, `
		module ops(input [7:0] a, input [7:0] b, output [7:0] o_and, output [7:0] o_mul,
		           output o_eq, output o_lt, output o_red, output [7:0] o_shift, output [7:0] o_cond);
		  assign o_and = a & b;
		  assign o_mul = a * b;
		  assign o_eq = a == b;
		  assign o_lt = a < b;
		  assign o_red = ^a;
		  assign o_shift = a >> b[2:0];
		  assign o_cond = (a > b) ? a : b;
		endmodule`, "ops")
	s.SetInput("a", 0x0F)
	s.SetInput("b", 0x03)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	checks := map[string]uint64{
		"o_and": 0x03, "o_mul": 0x2D, "o_eq": 0, "o_lt": 0,
		"o_red": 0, "o_shift": 0x01, "o_cond": 0x0F,
	}
	for net, want := range checks {
		if v, _ := s.Peek(net); v != want {
			t.Errorf("%s = %#x, want %#x", net, v, want)
		}
	}
}

func TestSimCombLoopDetected(t *testing.T) {
	s := newSim(t, `
		module loop(input a, output x);
		  wire y;
		  assign x = y ^ a;
		  assign y = ~x;
		endmodule`, "loop")
	s.SetInput("a", 0)
	if err := s.Settle(); !errors.Is(err, ErrCombLoop) {
		t.Errorf("Settle = %v, want ErrCombLoop", err)
	}
}

func TestSimBlackboxRejected(t *testing.T) {
	d, err := ParseDesign(`
		module m(input a, output y);
		  DSP48E2 u (.A(a), .P(y));
		endmodule`, "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flatSim(d, "m", nil); !errors.Is(err, ErrNotSimulable) {
		t.Errorf("flatSim = %v, want ErrNotSimulable", err)
	}
}

func TestSimUnconnectedInputTiedLow(t *testing.T) {
	s := newSim(t, `
		module inv(input a, output y); assign y = ~a; endmodule
		module m(output z);
		  inv u (.y(z));
		endmodule`, "m")
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("z"); v != 1 {
		t.Errorf("inverter of tied-low input = %d, want 1", v)
	}
}

func TestSimInputValidation(t *testing.T) {
	s := newSim(t, adderDesign, "top")
	if err := s.SetInput("s", 1); err == nil {
		t.Error("driving an output must error")
	}
	if err := s.SetInput("nosuch", 1); err == nil {
		t.Error("driving unknown net must error")
	}
	if _, err := s.Peek("nosuch"); err == nil {
		t.Error("peeking unknown net must error")
	}
}

func TestSimPortLists(t *testing.T) {
	s := newSim(t, adderDesign, "top")
	in, out := s.InputPorts(), s.OutputPorts()
	if len(in) != 2 || in[0] != "x1" || in[1] != "x2" {
		t.Errorf("InputPorts = %v", in)
	}
	if len(out) != 1 || out[0] != "s" {
		t.Errorf("OutputPorts = %v", out)
	}
}

func TestSimParameterized(t *testing.T) {
	d, err := ParseDesign(`
		module counter #(parameter W = 4) (input clk, input rst, output reg [W-1:0] q);
		  always @(posedge clk) begin
		    if (rst) q <= 0;
		    else q <= q + 1;
		  end
		endmodule`, "counter")
	if err != nil {
		t.Fatal(err)
	}
	s, err := flatSim(d, "counter", map[string]uint64{"W": 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("rst", 0)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if v, _ := s.Peek("q"); v != 10%8 {
		t.Errorf("3-bit counter after 10 ticks = %d, want 2", v)
	}
}

// Property: the RTL adder agrees with Go addition for all inputs.
func TestQuickSimAdder(t *testing.T) {
	s := newSim(t, adderDesign, "top")
	f := func(a, b uint8) bool {
		s.SetInput("x1", uint64(a))
		s.SetInput("x2", uint64(b))
		if err := s.Settle(); err != nil {
			return false
		}
		v, err := s.Peek("s")
		return err == nil && v == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a hierarchical 2-stage pipeline delays any input stream by
// exactly two cycles.
func TestQuickSimPipelineDelay(t *testing.T) {
	const src = `
		module stage(input clk, input [7:0] d, output reg [7:0] q);
		  always @(posedge clk) q <= d;
		endmodule
		module pipe(input clk, input [7:0] in, output [7:0] out);
		  wire [7:0] mid;
		  stage s0 (.clk(clk), .d(in), .q(mid));
		  stage s1 (.clk(clk), .d(mid), .q(out));
		endmodule`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newSim(t, src, "pipe")
		stream := make([]uint64, 12)
		for i := range stream {
			stream[i] = uint64(r.Intn(256))
		}
		for i, v := range stream {
			s.SetInput("in", v)
			if err := s.Tick(); err != nil {
				return false
			}
			if i >= 1 {
				// After tick i, out holds stream[i-1]. (Two registers, but the
				// first tick loads stage0 and the second moves it to out.)
				got, _ := s.Peek("out")
				if got != stream[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
