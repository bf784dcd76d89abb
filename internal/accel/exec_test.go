package accel

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// mvmMachine builds a warm-able machine with a 4x4 matrix at DRAM 0 and an
// input vector slot at 16.
func mvmMachine(t *testing.T) (*Machine, isa.Program) {
	t.Helper()
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ConfigureMatrix(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	writeVec(t, m, 0, []float64{
		2, 0, 0, 0,
		0, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, -1,
	})
	writeVec(t, m, 16, []float64{1, 2, 3, 4})
	p, err := isa.Assemble(`
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		v_wr r2, 32
		end_chain`)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestTileCacheHitsAcrossRuns(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TileCacheMisses != 1 || st.TileCacheHits != 0 {
		t.Fatalf("cold run: misses=%d hits=%d, want 1/0", st.TileCacheMisses, st.TileCacheHits)
	}
	reads := st.DRAMReads
	for i := 0; i < 3; i++ {
		if err := m.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	st = m.Stats()
	if st.TileCacheMisses != 1 || st.TileCacheHits != 3 {
		t.Errorf("warm runs: misses=%d hits=%d, want 1/3", st.TileCacheMisses, st.TileCacheHits)
	}
	// Warm m_rd reads no DRAM; only the 4-word v_rd per run.
	if got := st.DRAMReads - reads; got != 3*4 {
		t.Errorf("warm DRAM reads = %d, want 12", got)
	}
}

func TestTileCacheInvalidatedByOverlappingWrite(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	// Overwrite one word inside the cached tile through the host port.
	tile := m.mregs[0].mat
	writeVec(t, m, 5, []float64{3}) // matrix[1][1]: 1 -> 3
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.mregs[0].mat != tile {
		t.Error("same-shape re-read built a new tile instead of refilling the register's storage")
	}
	st := m.Stats()
	if st.TileCacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (write must invalidate)", st.TileCacheMisses)
	}
	got := readVecReg(t, m, 2)
	want := []float64{2, 6, 3, -4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("mv_mul[%d] = %v, want %v (stale tile?)", i, got[i], want[i])
		}
	}
}

func TestTileCacheSurvivesNonOverlappingWrite(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	// The input slot at 16 and output at 32 do not overlap the tile [0,16).
	writeVec(t, m, 16, []float64{4, 3, 2, 1})
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TileCacheMisses != 1 || st.TileCacheHits != 1 {
		t.Errorf("misses=%d hits=%d, want 1/1", st.TileCacheMisses, st.TileCacheHits)
	}
	got := readVecReg(t, m, 2)
	want := []float64{8, 3, 7, -1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("mv_mul[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTileCacheInvalidatedByReshape(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	// Same shape: cache stays.
	if err := m.ConfigureMatrix(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.TileCacheMisses != 1 || st.TileCacheHits != 1 {
		t.Fatalf("same-shape reconfigure: misses=%d hits=%d, want 1/1", st.TileCacheMisses, st.TileCacheHits)
	}
	// New shape: must requantize.
	if err := m.ConfigureMatrix(0, 2, 4); err != nil {
		t.Fatal(err)
	}
	p2, err := isa.Assemble("m_rd r0, 0\nend_chain")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p2); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.TileCacheMisses != 2 {
		t.Errorf("reshape: misses = %d, want 2", st.TileCacheMisses)
	}
}

// TestSteadyStateZeroAllocs is the headline acceptance guard: a warm run
// touching every steady-state opcode performs no heap allocation.
func TestSteadyStateZeroAllocs(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ConfigureMatrix(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	writeVec(t, m, 0, []float64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1})
	writeVec(t, m, 16, []float64{0.5, -0.25, 1, -1})
	p, err := isa.Assemble(`
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		vv_add r3, r2, r1
		vv_sub r4, r3, r1
		vv_mul r5, r4, r2
		v_sigm r6, r5
		v_tanh r7, r5
		v_relu r8, r5
		v_pass r9, r8
		v_const r10, 0x3c00
		v_rsub r11, r5, 0x3c00
		v_wr r11, 32
		end_chain`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %v times, want 0", allocs)
	}
}

func TestCachedMReadZeroAllocs(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	mrd, err := isa.Assemble("m_rd r0, 0\nend_chain")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(mrd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.Run(mrd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached m_rd allocates %v times, want 0", allocs)
	}
}

// TestTileRefillAllocs: once a register holds a tile of some shape,
// re-reading it after an invalidating write streams the binary16 rows
// through the machine's staging into the same storage, quantized from
// their bits with no scratch block: no allocation at all.
func TestTileRefillAllocs(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	word := []fp16.Num{fp16.FromFloat64(3)}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.DRAMPort().WriteWords(5, word); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("invalidate + m_rd refill allocates %v times, want 0", allocs)
	}
	if st := m.Stats(); st.TileCacheMisses != 22 {
		t.Errorf("misses = %d, want 22 (every run must requantize)", st.TileCacheMisses)
	}
}

// TestFailedMReadUnloadsRegister: a tile that runs off the end of DRAM
// part-way through must not leave a half-filled register behind.
func TestFailedMReadUnloadsRegister(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	bad, err := isa.Assemble("m_rd r0, 4090\nend_chain") // rows 0 fits, row 1 does not
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(bad); !errors.Is(err, ErrDRAMRange) {
		t.Fatalf("m_rd past DRAM = %v, want ErrDRAMRange", err)
	}
	mul, _ := isa.Assemble("mv_mul r2, r0, r1\nend_chain")
	if err := m.Run(mul); err == nil {
		t.Error("mv_mul against a register whose m_rd failed must error")
	}
	if err := m.Run(p); err != nil {
		t.Fatalf("reload after failed m_rd: %v", err)
	}
	if got, want := readVecReg(t, m, 2), []float64{2, 2, 3, -4}; !reflect.DeepEqual(got, want) {
		t.Errorf("after reload mv_mul = %v, want %v", got, want)
	}
}

// TestRunStreamsStepZeroAllocs is the serving plane's steady state: one
// program step over a shuffled cohort of slots, every mv_mul going through
// the batched packed kernel with per-stream quantization memos.
func TestRunStreamsStepZeroAllocs(t *testing.T) {
	const base = 16
	m, _ := mvmMachine(t)
	step, err := isa.Assemble(`
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		mv_mul r3, r0, r2
		vv_add r1, r2, r3
		v_wr r1, 16
		end_chain`)
	if err != nil {
		t.Fatal(err)
	}
	streams, offsets := []int{2, 0, 1}, []int{16, 0, 8}
	for s := range streams {
		writeVec(t, m, base+8*s, []float64{0.5, -0.25, float64(s), -1})
	}
	if err := m.RunStreams(step, base, streams, offsets); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.RunStreams(step, base, streams, offsets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunStreams step allocates %v times, want 0", allocs)
	}
}

func TestRunBatchRequiresStreams(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.RunStreams(p, 16, []int{}, []int{}); !errors.Is(err, ErrNoStreams) {
		t.Errorf("RunStreams with no streams = %v, want ErrNoStreams", err)
	}
}

// TestRunBatchMatchesSequential checks the batch path against independent
// sequential machines at the ISA level: banked inputs/outputs, identical
// register results, identical accumulated stats.
func TestRunBatchMatchesSequential(t *testing.T) {
	const B = 3
	const base = 16 // words below 16 (the matrix) are shared
	mat := []float64{
		2, 0, 0, 0,
		0, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, -1,
	}
	inputs := [B][]float64{
		{1, 2, 3, 4},
		{-1, 0.5, 2, -0.25},
		{0, 0, 1, 0},
	}
	src := `
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		v_sigm r3, r2
		vv_add r4, r3, r1
		v_wr r4, 24
		end_chain`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	// Batched machine: stream s's window is [16+8s, 24+8s).
	bm, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.ConfigureMatrix(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	writeVec(t, bm, 0, mat)
	var streams, offsets []int
	for s := 0; s < B; s++ {
		writeVec(t, bm, base+8*s, inputs[s])
		streams, offsets = append(streams, s), append(offsets, 8*s)
	}
	if err := bm.RunStreams(p, base, streams, offsets); err != nil {
		t.Fatal(err)
	}

	// Reference: B independent sequential machines (same cold start).
	var wantStats ExecStats
	for s := 0; s < B; s++ {
		sm, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sm.ConfigureMatrix(0, 4, 4); err != nil {
			t.Fatal(err)
		}
		writeVec(t, sm, 0, mat)
		writeVec(t, sm, base, inputs[s])
		if err := sm.Run(p); err != nil {
			t.Fatal(err)
		}
		for _, reg := range []int{2, 3, 4} {
			want, err := sm.readVectorStream(0, reg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bm.readVectorStream(s, reg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stream %d r%d = %v, want %v (bit-exact)", s, reg, got, want)
			}
		}
		// Banked v_wr landed in the stream's window.
		got, err := readWords(bm.DRAMPort(), 24+8*s, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readWords(sm.DRAMPort(), 24, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream %d DRAM output %v, want %v", s, got, want)
		}
		// Accumulate what B sequential runs on ONE machine would count:
		// the first misses the tile, later ones hit.
		st := sm.Stats()
		if s > 0 {
			st.TileCacheMisses = 0
			st.TileCacheHits = 1
			st.DRAMReads -= 16 // no tile refetch
		}
		wantStats.Instructions += st.Instructions
		wantStats.MACs += st.MACs
		wantStats.VectorOps += st.VectorOps
		wantStats.DRAMReads += st.DRAMReads
		wantStats.DRAMWrites += st.DRAMWrites
		wantStats.TileCacheHits += st.TileCacheHits
		wantStats.TileCacheMisses += st.TileCacheMisses
		for op, c := range st.ByOp {
			wantStats.ByOp[op] += c
		}
	}
	if got := bm.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("batched stats = %+v, want %+v", got, wantStats)
	}
}

func TestStatsMinus(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Minus(before)
	if d.Instructions != 5 || d.ByOp[isa.OpMVMul] != 1 {
		t.Errorf("delta = %+v, want one run's worth", d)
	}
	if d.TileCacheHits != 1 || d.TileCacheMisses != 0 {
		t.Errorf("delta cache stats = %d/%d, want 1 hit", d.TileCacheHits, d.TileCacheMisses)
	}
}

func TestRunStreamsValidation(t *testing.T) {
	m, p := mvmMachine(t)
	if err := m.RunStreams(p, 16, nil, nil); !errors.Is(err, ErrNoStreams) {
		t.Errorf("empty selection = %v, want ErrNoStreams", err)
	}
	if err := m.RunStreams(p, 16, []int{0, 1}, []int{0}); !errors.Is(err, ErrStreamRange) {
		t.Errorf("mismatched offsets = %v, want ErrStreamRange", err)
	}
	if err := m.RunStreams(p, 16, []int{-1}, []int{0}); !errors.Is(err, ErrStreamRange) {
		t.Errorf("negative stream = %v, want ErrStreamRange", err)
	}
	// mv_mul gathers per selection position: a stream named twice must be
	// refused before the gather tables, sized by the highest stream, are
	// indexed past their end.
	if err := m.RunStreams(p, 16, []int{0, 0}, []int{0, 0}); !errors.Is(err, ErrStreamRange) {
		t.Errorf("repeated stream = %v, want ErrStreamRange", err)
	}
}

// TestRunStreamsMatchesRunBatch runs the same program over the same banked
// windows as one whole-batch call (the identity selection, which
// TestRunBatchMatchesSequential holds to sequential machines) and as two
// calls over a permuted, non-prefix selection, and demands bit-identical
// registers and DRAM.
func TestRunStreamsMatchesRunBatch(t *testing.T) {
	const base = 16
	mat := []float64{
		2, 0, 0, 0,
		0, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, -1,
	}
	inputs := [][]float64{
		{1, 2, 3, 4},
		{-1, 0.5, 2, -0.25},
		{0, 0, 1, 0},
	}
	src := `
		m_rd r0, 0
		v_rd r1, 16
		mv_mul r2, r0, r1
		v_sigm r3, r2
		v_wr r3, 48
		end_chain`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Machine {
		m, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ConfigureMatrix(0, 4, 4); err != nil {
			t.Fatal(err)
		}
		writeVec(t, m, 0, mat)
		for s, in := range inputs {
			writeVec(t, m, base+8*s, in)
		}
		return m
	}

	bm := build()
	if err := bm.RunStreams(p, base, []int{0, 1, 2}, []int{0, 8, 16}); err != nil {
		t.Fatal(err)
	}
	sm := build()
	// Same work, issued as two slot-granular calls over a shuffled,
	// non-contiguous stream selection.
	if err := sm.RunStreams(p, base, []int{2, 0}, []int{16, 0}); err != nil {
		t.Fatal(err)
	}
	if err := sm.RunStreams(p, base, []int{1}, []int{8}); err != nil {
		t.Fatal(err)
	}
	for s := range inputs {
		want, err := bm.readVectorStream(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.readVectorStream(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream %d r3 = %v, want %v (bit-exact)", s, got, want)
		}
		a, err := readWords(bm.DRAMPort(), 48+8*s, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := readWords(sm.DRAMPort(), 48+8*s, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("stream %d DRAM output %v, want %v", s, b, a)
		}
	}
}

// TestRunStreamsPersistentState drives two streams through a two-phase
// program split (load then accumulate) with a third stream admitted after
// the first phase — the continuous-batching access pattern: register state
// must persist across RunStreams calls and late admission must not
// perturb the running streams.
func TestRunStreamsPersistentState(t *testing.T) {
	const base = 16
	load, err := isa.Assemble(`
		v_rd r1, 16`)
	if err != nil {
		t.Fatal(err)
	}
	accum, err := isa.Assemble(`
		vv_add r1, r1, r1
		v_wr r1, 24`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		writeVec(t, m, base+8*s, []float64{float64(s + 1), 0, 1, -2})
	}
	// Streams 0 and 1 load, then stream 2 is admitted and loads while 0/1
	// accumulate in the same cohort later.
	if err := m.RunStreams(load, base, []int{0, 1}, []int{0, 8}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunStreams(load, base, []int{2}, []int{16}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunStreams(accum, base, []int{0, 1, 2}, []int{0, 8, 16}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		got, err := readWords(m.DRAMPort(), 24+8*s, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{2 * float64(s+1), 0, 2, -4}
		for i, w := range want {
			if v := got[i].Float64(); v != w {
				t.Errorf("stream %d out[%d] = %v, want %v", s, i, v, w)
			}
		}
	}
}
