package accel

import (
	"encoding/json"
	"testing"

	"mlvfpga/internal/isa"
)

// wireStats has non-zero counts on both sides of opcode 10, where decimal
// key order and numeric order part ways.
func wireStats() ExecStats {
	s := ExecStats{
		Instructions: 31, MACs: 4096, VectorOps: 640, DRAMReads: 1200, DRAMWrites: 64,
		TileCacheHits: 6, TileCacheMisses: 2,
	}
	s.ByOp[isa.OpVRead] = 3
	s.ByOp[isa.OpMRead] = 2
	s.ByOp[isa.OpMVMul] = 8
	s.ByOp[isa.OpVSigm] = 6
	s.ByOp[isa.OpVConst] = 4
	s.ByOp[isa.OpEndChain] = 1
	s.ByOp[isa.OpVRecip] = 7
	return s
}

// TestExecStatsWireForm pins the JSON /infer's batch_stats carries to what
// ExecStats encoded to when ByOp was a map[isa.Opcode]int (the literal is
// that encoding of the same values), and checks it decodes back.
func TestExecStatsWireForm(t *testing.T) {
	const want = `{"instructions":31,"by_op":{"1":3,"12":4,"14":1,"16":7,"3":2,"4":8,"8":6},` +
		`"macs":4096,"vector_ops":640,"dram_reads":1200,"dram_writes":64,"tile_cache_hits":6,"tile_cache_misses":2}`
	s := wireStats()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("json.Marshal = %s\nwant          %s", b, want)
	}
	var back ExecStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip = %+v, want %+v", back, s)
	}
}

func TestOpCountsRejectsUndefinedOpcode(t *testing.T) {
	for _, in := range []string{`{"17":1}`, `{"255":1}`, `{"256":1}`, `{"-1":1}`, `{"x":1}`, `[1]`} {
		var c OpCounts
		if err := json.Unmarshal([]byte(in), &c); err == nil {
			t.Errorf("Unmarshal(%s) = %v, want an error", in, c)
		}
	}
	var c OpCounts
	if err := json.Unmarshal([]byte(`{"16":2}`), &c); err != nil || c[isa.OpVRecip] != 2 {
		t.Errorf(`Unmarshal({"16":2}) = %v, %v`, c, err)
	}
}

var statsSink ExecStats

// TestStatsArithmeticAllocatesNothing: the serving plane snapshots, subtracts
// and adds stats at every admission, retirement and eviction.
func TestStatsArithmeticAllocatesNothing(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	carry := wireStats()
	allocs := testing.AllocsPerRun(100, func() {
		base := m.Stats()
		statsSink = m.Stats().Minus(base).Plus(carry)
	})
	if allocs != 0 {
		t.Errorf("Stats/Minus/Plus allocate %v times, want 0", allocs)
	}
}

// FuzzOpCountsJSON: arbitrary bytes never panic the decoder, and whatever
// it accepts re-encodes, by MarshalJSON and by AppendJSON after a prefix,
// to a form that decodes to the same counts.
func FuzzOpCountsJSON(f *testing.F) {
	for _, seed := range []string{
		`{"1":3,"12":4,"14":1,"16":7,"3":2,"4":8,"8":6}`, `{}`, `null`,
		`{"01":2,"1":5}`, `{"3":0}`, `{"17":1}`, `{"2":-9223372036854775808}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c OpCounts
		if err := c.UnmarshalJSON(data); err != nil {
			return
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", c, err)
		}
		if a := c.AppendJSON([]byte("x")); string(a) != "x"+string(b) {
			t.Fatalf("AppendJSON after a prefix wrote %s, MarshalJSON %s", a, b)
		}
		var back OpCounts
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if back != c {
			t.Fatalf("%q decoded to %v, re-encoded as %s, decoded again to %v", data, c, b, back)
		}
	})
}
