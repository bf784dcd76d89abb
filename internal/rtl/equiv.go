package rtl

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mlvfpga/internal/metrics"
)

// This file provides the "are these two blocks identical hardware" oracle
// that the decomposing step (§2.2.1) needs to detect data parallelism. The
// paper cites SAT-based combinational equivalence checking [20,35,46]; we
// implement the standard lightweight front-end of such checkers:
//
//  1. a canonical structural hash (alpha-renamed nets, recursive child
//     hashes), which proves equivalence for identical structure, and
//  2. random-simulation equivalence over the flattened designs, which
//     catches structurally different but functionally identical modules
//     with high probability.
//
// Random simulation cannot *prove* equivalence, but for parallelism
// extraction a false positive only costs mapping quality, not correctness
// of the oracle's user: the copies it groups really did agree on every
// tested stimulus.

// hasher computes canonical structural hashes of elaborations, memoized
// per elaboration. Two elaborations with identical structure — up to net
// names, instance names and child module names — share a hash: a port
// keeps its name, the i-th net of a module reads as n<i>, and a name that
// declares neither and is no parameter stays as written. A module's
// canonical text is appended into one buffer that, like the key scratch,
// is reused from module to module; the text also seeds random simulation
// (pairSeed), so its bytes are pinned by testdata/structural_hash.golden.
type hasher struct {
	memo  map[*ElabModule]string
	buf   []byte
	ports int // the hashed module's port count
	keys  []string
	conns []Conn
}

func newHasher() *hasher {
	return &hasher{memo: map[*ElabModule]string{}}
}

// hash returns em's structural hash.
func (h *hasher) hash(em *ElabModule) string {
	if s, ok := h.memo[em]; ok {
		return s
	}
	// Children first, so the scratch below serves one module at a time.
	for _, child := range em.Children {
		if child.Elab != nil {
			h.hash(child.Elab)
		}
	}
	h.ports = len(em.Module.Ports)
	b := h.buf[:0]
	// Ports: names are part of the interface and therefore of the hash.
	for i, p := range em.Module.Ports {
		b = append(append(append(append(b, "port "...), p.Name...), ' '), p.Dir.String()...)
		b = strconv.AppendInt(append(b, ' '), int64(em.Widths[i]), 10)
		b = append(strconv.AppendBool(append(b, ' '), p.IsReg), ';')
	}
	for i, n := range em.Module.Nets {
		b = h.appendNet(append(b, "net "...), h.ports+i, n.Name)
		b = strconv.AppendInt(append(b, ' '), int64(em.Widths[h.ports+i]), 10)
		b = append(strconv.AppendBool(append(b, ' '), n.IsReg), ';')
	}
	for _, a := range em.Module.Assigns {
		b = h.appendCanon(append(b, "assign "...), a.LHS, em.Env)
		b = append(h.appendCanon(append(b, " = "...), a.RHS, em.Env), ';')
	}
	for _, alw := range em.Module.Alwayses {
		b = h.appendNet(append(b, "always "...), alw.ClockNet, alw.Clock)
		b = append(strconv.AppendBool(append(b, ' '), alw.Negedge), " {"...)
		for _, sa := range alw.Body {
			for _, g := range sa.Guard {
				b = append(h.appendCanon(append(b, '['), g, em.Env), ']')
			}
			b = h.appendCanon(b, sa.LHS, em.Env)
			b = append(h.appendCanon(append(b, " <= "...), sa.RHS, em.Env), ';')
		}
		b = append(b, '}')
	}
	for _, child := range em.Children {
		inst := child.Inst
		b = append(b, "inst "...)
		if child.Elab != nil {
			b = append(b, h.memo[child.Elab]...)
		} else {
			// Blackbox primitives are identified by name and parameters.
			b = h.appendParams(append(append(b, "prim:"...), inst.ModuleName...), inst.Params, em.Env)
		}
		b = append(b, " ("...)
		h.conns = append(h.conns[:0], inst.Conns...)
		slices.SortFunc(h.conns, func(a, b Conn) int { return strings.Compare(a.Port, b.Port) })
		for _, c := range h.conns {
			b = append(append(append(b, '.'), c.Port...), '(')
			if c.Expr != nil {
				b = h.appendCanon(b, c.Expr, em.Env)
			}
			b = append(b, "),"...)
		}
		b = append(b, ");"...)
	}
	sum := sha256.Sum256(b)
	h.buf = hex.AppendEncode(b, sum[:16])
	s := string(h.buf[len(b):])
	h.memo[em] = s
	return s
}

// sortedKeys returns m's keys in order, in the hasher's key scratch.
func (h *hasher) sortedKeys(m map[string]Expr) []string {
	h.keys = h.keys[:0]
	for k := range m {
		h.keys = append(h.keys, k)
	}
	sort.Strings(h.keys)
	return h.keys
}

// appendNet appends the canonical name of net index i (Ident.Net) named
// name.
func (h *hasher) appendNet(b []byte, i int, name string) []byte {
	if i < h.ports {
		return append(b, name...)
	}
	return strconv.AppendInt(append(b, 'n'), int64(i-h.ports), 10)
}

// appendCanon appends an expression with canonical net names and
// parameters folded to constants.
func (h *hasher) appendCanon(b []byte, e Expr, env map[string]uint64) []byte {
	switch v := e.(type) {
	case *Ident:
		if val, isParam := env[v.Name]; v.Net < 0 && isParam {
			return strconv.AppendUint(append(b, '#'), val, 10)
		}
		return h.appendNet(b, v.Net, v.Name)
	case *Number:
		b = strconv.AppendUint(append(b, '#'), v.Value, 10)
		return strconv.AppendInt(append(b, '/'), int64(v.Width), 10)
	case *Unary:
		return append(h.appendCanon(append(append(b, v.Op...), '('), v.X, env), ')')
	case *Binary:
		b = h.appendCanon(append(b, '('), v.L, env)
		return append(h.appendCanon(append(b, v.Op...), v.R, env), ')')
	case *Cond:
		b = h.appendCanon(append(b, '('), v.If, env)
		b = h.appendCanon(append(b, '?'), v.Then, env)
		return append(h.appendCanon(append(b, ':'), v.Else, env), ')')
	case *Index:
		b = h.appendCanon(b, v.X, env)
		return append(h.appendCanon(append(b, '['), v.At, env), ']')
	case *Slice:
		b = h.appendCanon(b, v.X, env)
		b = h.appendCanon(append(b, '['), v.Msb, env)
		return append(h.appendCanon(append(b, ':'), v.Lsb, env), ']')
	case *Concat:
		b = append(b, '{')
		for i, p := range v.Parts {
			if i > 0 {
				b = append(b, ',')
			}
			b = h.appendCanon(b, p, env)
		}
		return append(b, '}')
	case *Repl:
		b = h.appendCanon(append(b, '{'), v.Count, env)
		return append(h.appendCanon(append(b, '{'), v.X, env), "}}"...)
	}
	return fmt.Appendf(b, "?%T", e)
}

// appendParams appends a primitive's parameter overrides, folded to
// constants, in name order.
func (h *hasher) appendParams(b []byte, params map[string]Expr, env map[string]uint64) []byte {
	if len(params) == 0 {
		return b
	}
	b = append(b, '#')
	for _, k := range h.sortedKeys(params) {
		b = append(append(b, k...), '=')
		if v, err := EvalConst(params[k], env); err != nil {
			b = append(b, '?')
		} else {
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ',')
	}
	return b
}

// EquivStats counts what the equivalence oracle did. The memoization cache
// (keyed by the ordered pair of structural hashes) is what keeps repeated
// queries during the decomposer's fixpoint iteration cheap: every
// structurally-repeated pair after the first resolves without simulation.
type EquivStats struct {
	// Queries counts Equivalent calls.
	Queries int
	// StructuralHits counts queries decided by elaboration identity or by
	// equal structural hashes (no simulation considered).
	StructuralHits int
	// CacheHits counts queries answered from the hash-pair memo cache.
	CacheHits int
	// SimRuns counts cache misses that ran random-simulation equivalence.
	SimRuns int
}

// EquivChecker decides whether two elaborated modules implement identical
// hardware. A checker is safe for concurrent use; every verdict is a pure
// function of (seed, pair of modules), independent of query order, so
// cached runs reproduce uncached results.
type EquivChecker struct {
	d    *Design
	seed int64
	// Vectors is the number of random input vectors applied per
	// equivalence query (default 64).
	Vectors int
	// Cycles is the number of clock ticks applied after each vector to
	// exercise sequential behaviour (default 4).
	Cycles int

	mu      sync.Mutex
	hashes  *hasher
	simMemo map[[2]string]bool
	stats   EquivStats
}

// NewEquivChecker builds a checker with a deterministic random source.
func NewEquivChecker(d *Design, seed int64) *EquivChecker {
	return &EquivChecker{
		d:       d,
		seed:    seed,
		Vectors: 64,
		Cycles:  4,
		hashes:  newHasher(),
		simMemo: map[[2]string]bool{},
	}
}

// Stats returns a snapshot of the oracle's hit/miss counters.
func (c *EquivChecker) Stats() EquivStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Equivalent reports whether a and b implement identical hardware. The fast
// path is the structural hash; the slow path is random-simulation
// equivalence over the flattened modules, memoized on the ordered pair of
// structural hashes. Modules containing blackbox primitives can only be
// proven equivalent structurally.
func (c *EquivChecker) Equivalent(a, b *ElabModule) (bool, error) {
	c.mu.Lock()
	c.stats.Queries++
	metrics.EquivQueries.Add(1)
	var ha, hb string // equal keys name one elaboration: no hash needed
	if a != b && a.Key != b.Key {
		ha, hb = c.hashes.hash(a), c.hashes.hash(b)
	}
	if ha == hb {
		c.stats.StructuralHits++
		c.mu.Unlock()
		metrics.EquivStructuralHits.Add(1)
		return true, nil
	}
	if !sameInterface(a, b) {
		c.mu.Unlock()
		return false, nil
	}
	memoKey := [2]string{ha, hb}
	if hb < ha {
		memoKey = [2]string{hb, ha}
	}
	if r, ok := c.simMemo[memoKey]; ok {
		c.stats.CacheHits++
		c.mu.Unlock()
		metrics.EquivCacheHits.Add(1)
		return r, nil
	}
	c.stats.SimRuns++
	c.mu.Unlock()
	metrics.EquivSimRuns.Add(1)

	eq, err := c.simEquivalent(a, b, pairSeed(c.seed, memoKey))
	if errors.Is(err, ErrNotSimulable) {
		// Cannot decide functionally; structural mismatch stands.
		eq, err = false, nil
	}
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	c.simMemo[memoKey] = eq
	c.mu.Unlock()
	return eq, nil
}

// pairSeed derives the simulation seed for one hash pair. Keying the seed
// on the (ordered) pair rather than on a shared stream makes every verdict
// independent of query order, which is what lets a cached verdict stand
// for a fresh simulation bit-for-bit.
func pairSeed(seed int64, memoKey [2]string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, memoKey[0], memoKey[1])
	return int64(h.Sum64())
}

// sameInterface reports whether two elaborations expose identical port
// lists (name, direction, width), which data-parallel interchangeable
// copies must.
func sameInterface(a, b *ElabModule) bool {
	if len(a.Module.Ports) != len(b.Module.Ports) {
		return false
	}
	for i, pa := range a.Module.Ports {
		j := slices.IndexFunc(b.Module.Ports, func(pb Port) bool { return pb.Name == pa.Name })
		if j < 0 || pa.Dir != b.Module.Ports[j].Dir || a.PortWidths[i] != b.PortWidths[j] {
			return false
		}
	}
	return true
}

// publicParams extracts the non-local parameter bindings of an elaboration,
// suitable for re-elaboration or flattening.
func publicParams(em *ElabModule) map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range em.Module.Params {
		if !p.IsLocal {
			out[p.Name] = em.Env[p.Name]
		}
	}
	return out
}

// clockLike reports whether a port name looks like a clock or reset, which
// the random driver toggles via Tick rather than random data.
func clockLike(name string) bool {
	n := strings.ToLower(name)
	return n == "clk" || n == "clock" || strings.HasSuffix(n, "_clk") ||
		n == "rst" || n == "reset" || strings.HasSuffix(n, "_rst")
}

// simEquivalent applies c.Vectors random input vectors (plus c.Cycles
// clock ticks each) to simulators of a and b, each side flattened once.
// Every vector draws its stimulus from an own *rand.Rand seeded by
// (pairSeed, vector index).
func (c *EquivChecker) simEquivalent(a, b *ElabModule, seed int64) (bool, error) {
	flatA, err := c.d.Flatten(a.Module.Name, publicParams(a))
	if err != nil {
		return false, err
	}
	flatB, err := c.d.Flatten(b.Module.Name, publicParams(b))
	if err != nil {
		return false, err
	}
	simA, err := NewFlatSimulator(flatA)
	if err != nil {
		return false, err
	}
	simB, err := NewFlatSimulator(flatB)
	if err != nil {
		return false, err
	}
	inputs := simA.InputPorts()
	outputs := simA.OutputPorts()
	for v := range c.Vectors {
		rng := rand.New(rand.NewSource(seed + int64(v)*0x9E3779B9))
		for _, in := range inputs {
			if clockLike(in) {
				continue
			}
			val := rng.Uint64()
			if err := simA.SetInput(in, val); err != nil {
				return false, err
			}
			if err := simB.SetInput(in, val); err != nil {
				return false, err
			}
		}
		if err := simA.Settle(); err != nil {
			return false, err
		}
		if err := simB.Settle(); err != nil {
			return false, err
		}
		for cyc := 0; cyc <= c.Cycles; cyc++ {
			for _, out := range outputs {
				va, err := simA.Peek(out)
				if err != nil {
					return false, err
				}
				vb, err := simB.Peek(out)
				if err != nil {
					return false, err
				}
				if va != vb {
					return false, nil
				}
			}
			if cyc < c.Cycles {
				if err := simA.Tick(); err != nil {
					return false, err
				}
				if err := simB.Tick(); err != nil {
					return false, err
				}
			}
		}
	}
	return true, nil
}
