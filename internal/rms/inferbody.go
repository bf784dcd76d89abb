package rms

import (
	"encoding/json"
	"strconv"
	"sync"

	"mlvfpga/internal/accel"
)

// inferBody is the POST /infer request.
type inferBody struct {
	ID     int         `json:"id"`
	Inputs [][]float64 `json:"inputs"`
}

// inferScratch is what one /infer borrows for its caller and gives back:
// the decoded body, the row headers and backing array scanInfer decodes
// into, the result retire reads the outputs into with its rows' backing
// array, and the response's by_op bytes.
type inferScratch struct {
	body inferBody // views rows after a scan; json.Unmarshal's own otherwise
	rows [][]float64
	back []float64
	res  InferResult
	out  []float64
	wire inferWire
}

// inferWire encodes as its InferResult does, byte for byte: each shallow
// field shadows the embedded one of its name and keeps its place, and by_op
// arrives encoded into the pooled scratch, so encoding/json copies it
// rather than asking OpCounts.MarshalJSON for a fresh slice.
type inferWire struct {
	*InferResult
	BatchStats struct {
		Instructions int             `json:"instructions"`
		ByOp         json.RawMessage `json:"by_op"`
		*accel.ExecStats
	} `json:"batch_stats"`
}

var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// freeScratch drops what sc's body references and pools sc only if every
// array it holds fits the named lease's TimeSteps × Hidden, so the pool
// holds no more than the largest live layer, whatever body (up to
// tenant.MaxBody) grew it. Scratch named for a lease with no engine is
// dropped with its request.
func (dp *DataPlane) freeScratch(sc *inferScratch) {
	e := dp.currentEngine(sc.body.ID)
	sc.body = inferBody{}
	if e == nil {
		return
	}
	steps, size := e.kern.Spec.TimeSteps, e.kern.Spec.TimeSteps*e.kern.Spec.Hidden
	if max(cap(sc.rows), cap(sc.res.Outputs)) <= steps && max(cap(sc.back), cap(sc.out)) <= size {
		scratchPool.Put(sc)
	}
}

// scanInfer decodes the canonical /infer body {"id":N,"inputs":[[x,…],…]}
// into sc.body without reflection. A first pass checks the shape and the
// JSON grammar (whitespace between tokens allowed) and counts; a second
// parses with encoding/json's own strconv.ParseFloat, so values are
// bit-identical, into sc's row headers and one backing array, grown only
// when too small. Any other body — other keys or key order, null, a number
// ParseFloat refuses, trailing bytes — leaves sc.body alone and returns
// false, for json.Unmarshal to decide (FuzzInferBody).
func scanInfer(b []byte, sc *inferScratch) bool {
	id := 0
	var err error
	for pass := 0; pass < 2; pass++ {
		s := scanner{b: b}
		if !s.lit(`{`) || !s.lit(`"id"`) || !s.lit(`:`) {
			return false
		}
		id, err = strconv.Atoi(string(s.number()))
		if err != nil || !s.lit(`,`) || !s.lit(`"inputs"`) || !s.lit(`:`) || !s.lit(`[`) {
			return false
		}
		rows, nums := 0, 0
		for ; !s.lit(`]`); rows++ {
			if rows > 0 && !s.lit(`,`) || !s.lit(`[`) {
				return false
			}
			start := nums
			for ; !s.lit(`]`); nums++ {
				if nums > start && !s.lit(`,`) {
					return false
				}
				num := s.number()
				if pass == 1 && num != nil {
					sc.back[nums], err = strconv.ParseFloat(string(num), 64)
				}
				if num == nil || err != nil {
					return false
				}
			}
			if pass == 1 {
				sc.rows[rows] = sc.back[start:nums:nums]
			}
		}
		if !s.lit(`}`) || s.ws() < len(b) {
			return false
		}
		if pass == 0 {
			sc.rows, sc.back = grow(sc.rows, rows), grow(sc.back, nums)
		}
	}
	sc.body = inferBody{ID: id, Inputs: sc.rows}
	return true
}

// scanner is scanInfer's cursor.
type scanner struct {
	b []byte
	i int
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

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	b, i := s.b, s.i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? after
// whitespace and returns its text, or nil if no JSON number is next.
func (s *scanner) number() []byte {
	start := s.ws()
	s.skip('-')
	if n := s.digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' || s.skip('.') && s.digits() == 0 {
		return nil
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		if s.digits() == 0 {
			return nil
		}
	}
	return s.b[start:s.i]
}
