package rms

import (
	"math"
	"strconv"
	"sync"

	"mlvfpga/internal/fp16"
)

// inferBody is the POST /infer request.
type inferBody struct {
	ID     int         `json:"id"`
	Inputs [][]float64 `json:"inputs"`
}

// inferScratch is what one /infer borrows for its caller and gives back:
// the decoded body, the row headers and backing array scanInfer decodes
// into, and the result retire reads the outputs into with its rows'
// backing array.
type inferScratch struct {
	body inferBody // views rows after a scan; json.Unmarshal's own otherwise
	rows [][]float64
	back []float64
	res  InferResult
	out  []float64
	// n counts a scanned body's vectors and width is the one's after
	// body.Inputs when n exceeds them: scanInfer stores no more of a body
	// than its lease's shape holds.
	n, width int
}

var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// freeScratch drops what sc's body references and pools sc only if every
// array it holds fits the named lease's TimeSteps × Hidden, so the pool
// holds no more than the largest live layer, whatever body (up to
// tenant.MaxBody) grew it. Scratch named for a lease with no engine is
// dropped with its request.
func (dp *DataPlane) freeScratch(sc *inferScratch) {
	e := dp.currentEngine(sc.body.ID)
	sc.body, sc.n = inferBody{}, 0
	if e == nil {
		return
	}
	steps, size := e.kern.Spec.TimeSteps, e.kern.Spec.TimeSteps*e.kern.Spec.Hidden
	if max(cap(sc.rows), cap(sc.res.Outputs)) <= steps && max(cap(sc.back), cap(sc.out)) <= size {
		scratchPool.Put(sc)
	}
}

// scanInfer decodes the canonical /infer body {"id":N,"inputs":[[x,…],…]}
// into sc in one pass, without reflection (whitespace between tokens
// allowed). It stores each input as the binary16 the machine loads,
// widened (scanner.float): the data plane reads an input only through
// fp16.FromFloat64, which rounds it as it rounds encoding/json's value.
// Past the TimeSteps × Hidden of the lease the id names in dp, and past a
// row of another width, it counts (sc.n, sc.width) and stores nothing;
// without dp or such a lease it stores the whole body. Any other body —
// other keys or key order, null, a number ParseFloat refuses, trailing
// bytes — returns false, for json.Unmarshal to decide (FuzzInferBody).
func scanInfer(b []byte, sc *inferScratch, dp *DataPlane) bool {
	s := scanner{b: b}
	if !s.lit(`{`) || !s.lit(`"id"`) || !s.lit(`:`) {
		return false
	}
	id, err := strconv.Atoi(string(s.number()))
	if err != nil || !s.lit(`,`) || !s.lit(`"inputs"`) || !s.lit(`:`) || !s.lit(`[`) {
		return false
	}
	rows, back := grow(sc.rows, 0), grow(sc.back, 0)
	steps, hidden := math.MaxInt, math.MaxInt
	if dp != nil {
		if rec, _ := dp.record(id); rec != nil {
			steps, hidden = rec.Spec.TimeSteps, rec.Spec.Hidden
			rows = grow(rows, steps)[:0]
		}
	}
	n, width := 0, 0
	for ; !s.lit(`]`); n++ {
		if n > 0 && !s.lit(`,`) || !s.lit(`[`) {
			return false
		}
		start, keep := len(back), n < steps && len(rows) == n
		if keep && hidden < math.MaxInt && cap(back) < start+hidden {
			// Room for this row, growing back at most to the lease's shape.
			back = append(make([]float64, 0, min(2*cap(back)+hidden, steps*hidden)), back...)
		}
		i := 0
		for ; !s.lit(`]`); i++ {
			if i > 0 && !s.lit(`,`) {
				return false
			}
			v, ok := s.float()
			if !ok {
				return false
			}
			if keep && i < hidden {
				back = append(back, v)
			}
		}
		switch {
		case keep && (i == hidden || hidden == math.MaxInt):
			rows = append(rows, back[start:])
		case keep:
			back, width = back[:start], i
		}
	}
	if !s.lit(`}`) || s.ws() < len(b) {
		return false
	}
	// Rows were cut from back as it grew; re-cut them from where it ended.
	off := 0
	for r, row := range rows {
		rows[r] = back[off : off+len(row) : off+len(row)]
		off += len(row)
	}
	sc.rows, sc.back = rows, back
	sc.body, sc.n, sc.width = inferBody{ID: id, Inputs: rows}, n, width
	return true
}

// scanner is scanInfer's cursor. number leaves its reading of the number
// it consumed in w, e and neg: the value is ±w·10^e when w holds sig ≤ 19
// significant digits.
type scanner struct {
	b      []byte
	i      int
	w      uint64
	e, sig int
	neg    bool
}

// ws skips JSON whitespace and returns the new position.
func (s *scanner) ws() int {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i
}

// lit consumes tok after whitespace, if it is next.
func (s *scanner) lit(tok string) bool {
	i := s.ws()
	for j := 0; j < len(tok); j++ {
		if i+j >= len(s.b) || s.b[i+j] != tok[j] {
			return false
		}
	}
	s.i = i + len(tok)
	return true
}

// skip consumes c if it is next.
func (s *scanner) skip(c byte) bool {
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// digits consumes a run of decimal digits, accumulating them into s.w and
// s.sig, which counts digits from the first nonzero one (w wraps only past
// 19), and returns its length.
func (s *scanner) digits() int {
	b, i, w, sig := s.b, s.i, s.w, s.sig
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		w = w*10 + uint64(b[i]-'0')
		if sig > 0 || b[i] != '0' {
			sig++
		}
	}
	n := i - s.i
	s.i, s.w, s.sig = i, w, sig
	return n
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? after
// whitespace and returns its text, or nil if no JSON number is next.
func (s *scanner) number() []byte {
	start := s.ws()
	s.w, s.sig, s.neg = 0, 0, s.skip('-')
	if n := s.digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return nil
	}
	if s.e = 0; s.skip('.') {
		if s.e = -s.digits(); s.e == 0 {
			return nil
		}
	}
	if s.skip('e') || s.skip('E') {
		neg := !s.skip('+') && s.skip('-')
		x, j := 0, s.i
		for ; j < len(s.b) && s.b[j]-'0' < 10; j++ {
			x = min(10*x+int(s.b[j]-'0'), 1000)
		}
		if j == s.i {
			return nil
		}
		if x == 1000 {
			s.sig = 20 // an exponent this large is ParseFloat's to read
		}
		s.i = j
		if neg {
			x = -x
		}
		s.e += x
	}
	return s.b[start:s.i]
}

// half returns the binary16 that fp16.FromFloat64(strconv.ParseFloat)
// gives the number just consumed, or false when fp16.FromDecimal cannot
// tell or w overflowed.
func (s *scanner) half() (fp16.Num, bool) {
	if s.sig > 19 {
		return 0, false
	}
	h, ok := fp16.FromDecimal(s.w, s.e)
	if s.neg {
		h |= 0x8000
	}
	return h, ok
}

// float consumes a number and returns the value scanInfer stores for it:
// its finite binary16 (half), widened, or else ParseFloat's value, so an
// InputRangeError names the number as sent.
func (s *scanner) float() (float64, bool) {
	num := s.number()
	if num == nil {
		return 0, false
	}
	if h, ok := s.half(); ok && h.IsFinite() {
		return h.Float64(), true
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// appendInferResult appends the bytes json.Encoder.Encode writes for res,
// trailing newline included, or reports false when res has a nil row or an
// output appendFloat leaves to encoding/json.
func appendInferResult(b []byte, res *InferResult) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"lease_id":`...), int64(res.LeaseID), 10)
	b = append(b, `,"outputs":[`...)
	for r, row := range res.Outputs {
		if row == nil {
			return b, false
		}
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat(b, v); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	st := &res.BatchStats
	b = strconv.AppendInt(append(b, `],"batch_size":`...), int64(res.BatchSize), 10)
	b = strconv.AppendInt(append(b, `,"stream":`...), int64(res.Stream), 10)
	b = strconv.AppendInt(append(b, `,"queue_wait_ns":`...), int64(res.QueueWait), 10)
	b = strconv.AppendInt(append(b, `,"batch_stats":{"instructions":`...), int64(st.Instructions), 10)
	b = st.ByOp.AppendJSON(append(b, `,"by_op":`...))
	b = strconv.AppendInt(append(b, `,"macs":`...), st.MACs, 10)
	b = strconv.AppendInt(append(b, `,"vector_ops":`...), st.VectorOps, 10)
	b = strconv.AppendInt(append(b, `,"dram_reads":`...), st.DRAMReads, 10)
	b = strconv.AppendInt(append(b, `,"dram_writes":`...), st.DRAMWrites, 10)
	b = strconv.AppendInt(append(b, `,"tile_cache_hits":`...), st.TileCacheHits, 10)
	b = strconv.AppendInt(append(b, `,"tile_cache_misses":`...), st.TileCacheMisses, 10)
	return append(b, "}}\n"...), res.Outputs != nil
}

// appendFloat appends v as encoding/json writes a float64: its exact
// decimal (fp16.AppendDecimal) when that is short, else strconv's shortest.
// It reports false for NaN, ±Inf and the values encoding/json writes with
// an exponent (below 1e-6, from 1e21 on), which writeJSON then encodes.
func appendFloat(b []byte, v float64) ([]byte, bool) {
	if out, ok := fp16.AppendDecimal(b, v); ok {
		return out, true
	}
	if a := math.Abs(v); a >= 1e-6 && a < 1e21 {
		return strconv.AppendFloat(b, v, 'f', -1, 64), true
	}
	return b, false
}
