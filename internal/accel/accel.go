// Package accel is a functional (instruction-level) simulator of the
// BrainWave-like AS ISA accelerator from the paper's case study (§3): tile
// engines perform matrix-vector multiplication in block floating point,
// multi-function units perform float16 point-wise operations and
// activations, and an instruction buffer holds the machine code on-chip to
// minimize DRAM accesses (§4.4).
//
// The simulator validates numerics and programs; timing is modelled
// separately in internal/perf. The DRAM port is an interface so the
// scale-out sync template module (§2.3, internal/scaleout) can interpose on
// reads and writes to predefined addresses.
//
// The execution engine is weight-stationary: m_rd quantizes a matrix tile
// once and caches it in the packed on-chip layout until an overlapping DRAM
// write or a shape reconfiguration invalidates it, and the steady-state
// step loop reuses preallocated register/scratch buffers so repeated Run
// calls perform no heap allocation. RunStreams executes one program over
// several banked input streams, amortizing each cached tile across the
// whole micro-batch (see exec.go).
package accel

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"mlvfpga/internal/bfp"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// Config sizes one accelerator instance. The number of tile engines is the
// knob the paper adjusts to generate instances with different computing
// capabilities (§3), and the knob the scale-down transform reduces (§2.3).
type Config struct {
	// Name identifies the instance, e.g. "bw_v37_t21".
	Name string
	// NativeDim is the hardware vector granularity (BFP block size).
	NativeDim int
	// NumTiles is the number of tile engines (SIMD data processing units).
	NumTiles int
	// VRegs and MRegs size the vector and matrix register files.
	VRegs, MRegs int
	// VecLen is the logical vector length (the model's hidden dimension);
	// v_rd and v_const produce vectors of this length.
	VecLen int
	// DRAMWords is the on-board DRAM capacity in float16 words.
	DRAMWords int
	// InstrBufBytes is the on-chip instruction buffer capacity.
	InstrBufBytes int
	// MantissaBits is the BFP mantissa width (default bfp.DefaultMantissaBits).
	MantissaBits int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NativeDim <= 0:
		return fmt.Errorf("accel: NativeDim = %d", c.NativeDim)
	case c.NumTiles <= 0:
		return fmt.Errorf("accel: NumTiles = %d", c.NumTiles)
	case c.VRegs <= 0 || c.VRegs > 256 || c.MRegs <= 0 || c.MRegs > 256:
		return fmt.Errorf("accel: register files VRegs=%d MRegs=%d", c.VRegs, c.MRegs)
	case c.VecLen <= 0:
		return fmt.Errorf("accel: VecLen = %d", c.VecLen)
	case c.DRAMWords <= 0:
		return fmt.Errorf("accel: DRAMWords = %d", c.DRAMWords)
	}
	return nil
}

// DRAM is the accelerator's memory port. The scale-out optimization wraps
// it to trap predefined addresses (§2.3 Fig. 8b). Its one read,
// ReadWordsInto, reads into a caller-provided buffer, which keeps the
// execution engine's steady-state v_rd and m_rd paths allocation-free.
type DRAM interface {
	ReadWordsInto(dst []fp16.Num, addr int) error
	WriteWords(addr int, vals []fp16.Num) error
}

// Memory is a plain in-memory DRAM.
type Memory struct {
	words []fp16.Num
}

// NewMemory allocates a DRAM of n float16 words.
func NewMemory(n int) *Memory { return &Memory{words: make([]fp16.Num, n)} }

// ErrDRAMRange is returned for out-of-range accesses.
var ErrDRAMRange = errors.New("accel: DRAM access out of range")

// ReadWordsInto copies len(dst) words starting at addr into dst without
// allocating.
func (m *Memory) ReadWordsInto(dst []fp16.Num, addr int) error {
	n := len(dst)
	if addr < 0 || addr+n > len(m.words) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrDRAMRange, addr, addr+n, len(m.words))
	}
	copy(dst, m.words[addr:addr+n])
	return nil
}

// WriteWords stores vals starting at addr.
func (m *Memory) WriteWords(addr int, vals []fp16.Num) error {
	if addr < 0 || addr+len(vals) > len(m.words) {
		return fmt.Errorf("%w: write [%d,%d) of %d", ErrDRAMRange, addr, addr+len(vals), len(m.words))
	}
	copy(m.words[addr:], vals)
	return nil
}

// trackedDRAM interposes on the machine's DRAM port so every write — from
// programs and from the host alike — invalidates overlapping tile-cache
// entries. Reads pass straight through.
type trackedDRAM struct {
	inner DRAM
	m     *Machine
}

func (t *trackedDRAM) ReadWordsInto(dst []fp16.Num, addr int) error {
	return t.inner.ReadWordsInto(dst, addr)
}

func (t *trackedDRAM) WriteWords(addr int, vals []fp16.Num) error {
	t.m.invalidateTiles(addr, len(vals))
	return t.inner.WriteWords(addr, vals)
}

// OpCounts counts executed instructions by opcode. An array, not a map, so
// stats snapshots, deltas and sums are plain copies that never allocate.
type OpCounts [isa.NumOpcodes]int

// jsonOpOrder is the order encoding/json writes a map's integer keys in:
// sorted as decimal strings ("1", "10", …, "16", "2", …).
var jsonOpOrder = func() []int {
	ops := make([]int, isa.NumOpcodes)
	for i := range ops {
		ops[i] = i
	}
	sort.Slice(ops, func(i, j int) bool { return strconv.Itoa(ops[i]) < strconv.Itoa(ops[j]) })
	return ops
}()

// MarshalJSON writes the non-zero counts as {"<opcode>":n,…}, byte for byte
// what a map[isa.Opcode]int encodes to.
func (c OpCounts) MarshalJSON() ([]byte, error) { return c.AppendJSON(make([]byte, 0, 128)), nil }

// AppendJSON appends MarshalJSON's bytes to b.
func (c OpCounts) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	open := len(b)
	for _, op := range jsonOpOrder {
		if c[op] == 0 {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '"'), int64(op), 10)
		b = strconv.AppendInt(append(b, '"', ':'), int64(c[op]), 10)
	}
	return append(b, '}')
}

// UnmarshalJSON reads the form MarshalJSON writes; a key naming no opcode
// is an error.
func (c *OpCounts) UnmarshalJSON(b []byte) error {
	var m map[isa.Opcode]int
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*c = OpCounts{}
	for op, n := range m {
		if op >= isa.NumOpcodes {
			return fmt.Errorf("accel: by_op key %d is not an opcode", op)
		}
		c[op] = n
	}
	return nil
}

// ExecStats counts executed work, consumed by the timing model, the
// instruction-buffer experiment, and the serving data plane's batching
// observability.
type ExecStats struct {
	Instructions int      `json:"instructions"`
	ByOp         OpCounts `json:"by_op"`
	MACs         int64    `json:"macs"`        // multiply-accumulates performed by mv_mul
	VectorOps    int64    `json:"vector_ops"`  // element-wise operations performed by the MFUs
	DRAMReads    int64    `json:"dram_reads"`  // words read
	DRAMWrites   int64    `json:"dram_writes"` // words written
	// TileCacheHits counts m_rd instructions served from the
	// weight-stationary tile cache (no DRAM read, no requantization);
	// TileCacheMisses counts m_rd instructions that had to quantize.
	TileCacheHits   int64 `json:"tile_cache_hits"`
	TileCacheMisses int64 `json:"tile_cache_misses"`
}

// Minus returns the work accumulated since prev, an earlier snapshot of the
// same machine's stats — the per-batch delta the serving data plane reports.
func (s ExecStats) Minus(prev ExecStats) ExecStats {
	d := ExecStats{
		Instructions:    s.Instructions - prev.Instructions,
		MACs:            s.MACs - prev.MACs,
		VectorOps:       s.VectorOps - prev.VectorOps,
		DRAMReads:       s.DRAMReads - prev.DRAMReads,
		DRAMWrites:      s.DRAMWrites - prev.DRAMWrites,
		TileCacheHits:   s.TileCacheHits - prev.TileCacheHits,
		TileCacheMisses: s.TileCacheMisses - prev.TileCacheMisses,
	}
	for op := range d.ByOp {
		d.ByOp[op] = s.ByOp[op] - prev.ByOp[op]
	}
	return d
}

// Machine is one simulated accelerator instance. A Machine is not safe for
// concurrent use; the serving layer pools machines so each executes one
// (possibly batched) program at a time.
type Machine struct {
	cfg   Config
	codec *bfp.Codec
	mregs []mreg
	dram  trackedDRAM
	stats ExecStats

	// streams holds per-stream register files and scratch arenas; stream 0
	// is the default context Run executes in. A stream's state is cut on
	// its first write, sized by writes and quant (see SizeStreams, exec.go).
	streams       []streamCtx
	base          int    // banked-window base of the current RunStreams
	writes, quant uint64 // bit r: register r is written, read by mv_mul

	// bvecs/bprods gather per-stream operands for the batched MVM without
	// allocating per instruction.
	bvecs  []bfp.Vector
	bprods [][]float64
	// rowHalf stages one tile row of fp16 words through an m_rd miss.
	rowHalf []fp16.Num

	sigm, tanh, exp, recip *[1 << 16]fp16.Num
}

// mreg is one matrix register: the shape m_rd loads into it, and its tile,
// quantized in the packed on-chip layout from DRAM words [addr,
// addr+words). While valid, an m_rd of the same range and shape is served
// from the register without touching DRAM or requantizing — the
// weight-stationary fast path. Any DRAM write overlapping the range (from
// a program's v_wr or from the host through DRAMPort) invalidates it.
type mreg struct {
	rows, cols  int
	mat         *bfp.PackedMatrix
	addr, words int
	valid       bool
	shared      bool // the tile belongs to a TileSet other machines bind too
}

// NewWithDRAM builds a machine over the given DRAM port (nil allocates a
// private Memory of cfg.DRAMWords). The machine's own port (DRAMPort)
// wraps dram to track writes for tile-cache invalidation.
func NewWithDRAM(cfg Config, dram DRAM) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MantissaBits == 0 {
		cfg.MantissaBits = bfp.DefaultMantissaBits
	}
	codec, err := bfp.NewCodec(cfg.MantissaBits)
	if err != nil {
		return nil, err
	}
	if dram == nil {
		dram = NewMemory(cfg.DRAMWords)
	}
	m := &Machine{cfg: cfg, codec: codec, mregs: make([]mreg, cfg.MRegs)}
	m.dram = trackedDRAM{inner: dram, m: m}
	m.sigm, m.tanh, m.exp, m.recip = actTables()
	m.ensureStreams(1)
	return m, nil
}

// DRAMPort returns the machine's DRAM port. Writes through it are tracked
// for tile-cache invalidation.
func (m *Machine) DRAMPort() DRAM { return &m.dram }

// Stats returns execution statistics so far, a stable snapshot (usable as
// a Minus baseline).
func (m *Machine) Stats() ExecStats { return m.stats }

// invalidateTiles drops every cached tile overlapping the written range.
func (m *Machine) invalidateTiles(addr, n int) {
	if n <= 0 {
		return
	}
	for i := range m.mregs {
		t := &m.mregs[i]
		if t.valid && addr < t.addr+t.words && t.addr < addr+n {
			t.valid = false
		}
	}
}

// TileSet is a machine's loaded tiles, held apart for machines to bind read-only.
type TileSet struct {
	cfg  Config
	regs []mreg
}

// Tiles returns m's loaded tiles as a set, marked shared on m too: m refills
// an invalidated one into fresh storage. m may not be running.
func (m *Machine) Tiles() *TileSet {
	for i := range m.mregs {
		m.mregs[i].shared = true
	}
	return &TileSet{cfg: m.cfg, regs: slices.Clone(m.mregs)}
}

// BindTiles binds ts's tiles into m where configuration and shape agree (m's
// DRAM must hold their words), so m's m_rd of them hits; invalidated, a
// bound register refills into fresh storage. m may not be running.
func (m *Machine) BindTiles(ts *TileSet) {
	for i, t := range ts.regs {
		if r := &m.mregs[i]; t.valid && m.cfg == ts.cfg && r.rows == t.mat.Rows && r.cols == t.mat.Cols {
			*r = t
		}
	}
}

// ConfigureMatrix sets the shape m_rd loads into matrix register reg; this
// models the control registers the host programs before launching a chain.
// Changing a register's shape invalidates its cached tile.
func (m *Machine) ConfigureMatrix(reg, rows, cols int) error {
	if reg < 0 || reg >= m.cfg.MRegs {
		return fmt.Errorf("accel: matrix register %d out of range", reg)
	}
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("accel: matrix shape %dx%d", rows, cols)
	}
	if r := &m.mregs[reg]; r.rows != rows || r.cols != cols {
		r.rows, r.cols, r.valid = rows, cols, false
	}
	return nil
}
