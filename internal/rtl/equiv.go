package rtl

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"mlvfpga/internal/metrics"
	"mlvfpga/internal/parpool"
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

// structuralHash returns a canonical hash of an elaborated module,
// memoized per elaboration. Two elaborations with identical structure — up
// to net names, instance names and child module names — share a hash.
func (d *Design) structuralHash(em *ElabModule, memo map[*ElabModule]string) string {
	if h, ok := memo[em]; ok {
		return h
	}
	var sb strings.Builder
	rename := newRenamer()
	// Ports: names are part of the interface and therefore of the hash.
	for _, p := range em.Module.Ports {
		fmt.Fprintf(&sb, "port %s %s %d %v;", p.Name, p.Dir, em.PortWidths[p.Name], p.IsReg)
		rename.keep(p.Name)
	}
	widths, err := em.NetWidths()
	if err != nil {
		// Width errors surface during elaboration; treat as unique.
		fmt.Fprintf(&sb, "widtherr %v;", err)
	}
	for _, n := range em.Module.Nets {
		fmt.Fprintf(&sb, "net %s %d %v;", rename.of(n.Name), widths[n.Name], n.IsReg)
	}
	for _, a := range em.Module.Assigns {
		fmt.Fprintf(&sb, "assign %s = %s;", canonExpr(a.LHS, rename, em.Env), canonExpr(a.RHS, rename, em.Env))
	}
	for _, alw := range em.Module.Alwayses {
		fmt.Fprintf(&sb, "always %s %v {", rename.of(alw.Clock), alw.Negedge)
		for _, sa := range alw.Body {
			for _, g := range sa.Guard {
				fmt.Fprintf(&sb, "[%s]", canonExpr(g, rename, em.Env))
			}
			fmt.Fprintf(&sb, "%s <= %s;", canonExpr(sa.LHS, rename, em.Env), canonExpr(sa.RHS, rename, em.Env))
		}
		sb.WriteString("}")
	}
	for _, child := range em.Children {
		inst := child.Inst
		var childID string
		if child.Elab != nil {
			childID = d.structuralHash(child.Elab, memo)
		} else {
			// Blackbox primitives are identified by name and parameters.
			childID = "prim:" + inst.ModuleName + canonParams(inst.Params, em.Env)
		}
		fmt.Fprintf(&sb, "inst %s (", childID)
		var conns map[string]Expr
		if child.Elab != nil {
			conns, err = resolveConns(inst, child.Elab.Module)
			if err != nil {
				conns = inst.Conns
			}
		} else {
			conns = inst.Conns
		}
		keys := make([]string, 0, len(conns))
		for k := range conns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if conns[k] == nil {
				fmt.Fprintf(&sb, ".%s(),", k)
				continue
			}
			fmt.Fprintf(&sb, ".%s(%s),", k, canonExpr(conns[k], rename, em.Env))
		}
		sb.WriteString(");")
	}
	sum := sha256.Sum256([]byte(sb.String()))
	h := hex.EncodeToString(sum[:16])
	memo[em] = h
	return h
}

// renamer assigns canonical names to nets in first-use order; port names
// are kept verbatim.
type renamer struct {
	m    map[string]string
	next int
}

func newRenamer() *renamer { return &renamer{m: map[string]string{}} }

func (r *renamer) keep(name string) { r.m[name] = name }

func (r *renamer) of(name string) string {
	if c, ok := r.m[name]; ok {
		return c
	}
	c := fmt.Sprintf("n%d", r.next)
	r.next++
	r.m[name] = c
	return c
}

// canonExpr serializes an expression with canonical net names and
// parameters folded to constants.
func canonExpr(e Expr, r *renamer, env map[string]uint64) string {
	switch v := e.(type) {
	case *Ident:
		if val, isParam := env[v.Name]; isParam {
			if _, alsoNet := r.m[v.Name]; !alsoNet {
				return fmt.Sprintf("#%d", val)
			}
		}
		return r.of(v.Name)
	case *Number:
		return fmt.Sprintf("#%d/%d", v.Value, v.Width)
	case *Unary:
		return v.Op + "(" + canonExpr(v.X, r, env) + ")"
	case *Binary:
		return "(" + canonExpr(v.L, r, env) + v.Op + canonExpr(v.R, r, env) + ")"
	case *Cond:
		return "(" + canonExpr(v.If, r, env) + "?" + canonExpr(v.Then, r, env) + ":" + canonExpr(v.Else, r, env) + ")"
	case *Index:
		return canonExpr(v.X, r, env) + "[" + canonExpr(v.At, r, env) + "]"
	case *Slice:
		return canonExpr(v.X, r, env) + "[" + canonExpr(v.Msb, r, env) + ":" + canonExpr(v.Lsb, r, env) + "]"
	case *Concat:
		parts := make([]string, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = canonExpr(p, r, env)
		}
		return "{" + strings.Join(parts, ",") + "}"
	case *Repl:
		return "{" + canonExpr(v.Count, r, env) + "{" + canonExpr(v.X, r, env) + "}}"
	}
	return fmt.Sprintf("?%T", e)
}

func canonParams(params map[string]Expr, env map[string]uint64) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('#')
	for _, k := range keys {
		v, err := EvalConst(params[k], env)
		if err != nil {
			fmt.Fprintf(&sb, "%s=?,", k)
			continue
		}
		fmt.Fprintf(&sb, "%s=%d,", k, v)
	}
	return sb.String()
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
// function of (seed, pair of modules), independent of query order and of
// Parallelism, so cached and parallel runs reproduce sequential results.
type EquivChecker struct {
	d    *Design
	seed int64
	// Vectors is the number of random input vectors applied per
	// equivalence query (default 64).
	Vectors int
	// Cycles is the number of clock ticks applied after each vector to
	// exercise sequential behaviour (default 4).
	Cycles int
	// Parallelism bounds the goroutines sharding one query's simulation
	// batches (<= 1 sequential, < 1 never set here: the zero value keeps
	// the sequential path so plain NewEquivChecker use stays single-core).
	Parallelism int

	mu       sync.Mutex
	hashMemo map[*ElabModule]string
	simMemo  map[[2]string]bool
	stats    EquivStats
}

// NewEquivChecker builds a checker with a deterministic random source.
func NewEquivChecker(d *Design, seed int64) *EquivChecker {
	return &EquivChecker{
		d:           d,
		seed:        seed,
		Vectors:     64,
		Cycles:      4,
		Parallelism: 1,
		hashMemo:    map[*ElabModule]string{},
		simMemo:     map[[2]string]bool{},
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
	if a == b || a.Key == b.Key {
		c.stats.StructuralHits++
		c.mu.Unlock()
		metrics.EquivStructuralHits.Add(1)
		return true, nil
	}
	ha := c.d.structuralHash(a, c.hashMemo)
	hb := c.d.structuralHash(b, c.hashMemo)
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
	if err != nil {
		if err == ErrNotSimulable || strings.Contains(err.Error(), "blackbox") {
			// Cannot decide functionally; structural mismatch stands.
			eq, err = false, nil
		} else {
			return false, err
		}
	}
	c.mu.Lock()
	c.simMemo[memoKey] = eq
	c.mu.Unlock()
	return eq, nil
}

// pairSeed derives the simulation seed for one hash pair. Keying the seed
// on the (ordered) pair rather than on a shared stream makes every verdict
// independent of query order, which is what lets the cache and the parallel
// offline flow reproduce sequential results bit-for-bit.
func pairSeed(seed int64, memoKey [2]string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, memoKey[0], memoKey[1])
	return int64(h.Sum64())
}

// CanonHash generalizes this file's FNV-64a derivations (pairSeed, the
// blob checksums built on it) into a canonical field hasher for
// content-addressed keys: a salt names the keyspace and its format
// version, and every field folds in as "name=value;" so reordering,
// omitting, or renaming a field changes the digest. It is the key
// machinery behind the artifact store (core.CompileKey hashes
// kernels.LayerSpec / core.Options fields plus the per-device calibration
// resource vectors through it).
type CanonHash struct {
	h hash.Hash64
}

// NewCanonHash starts a digest over the named keyspace. Bump the salt
// (e.g. "compiled/v1" -> "compiled/v2") whenever the hashed structure or
// the artifact's wire format changes, so stale cache entries miss instead
// of decoding wrongly.
func NewCanonHash(salt string) *CanonHash {
	c := &CanonHash{h: fnv.New64a()}
	fmt.Fprintf(c.h, "salt=%s;", salt)
	return c
}

// Field folds one named value into the digest using its canonical %v
// rendering (stable for ints, bools, strings, and flat structs of them).
func (c *CanonHash) Field(name string, v any) *CanonHash {
	fmt.Fprintf(c.h, "%s=%v;", name, v)
	return c
}

// Raw folds pre-rendered canonical bytes — a memoized block of Field-
// formatted pairs — without re-formatting them. The digest is identical
// to emitting the same fields one by one.
func (c *CanonHash) Raw(b []byte) *CanonHash {
	c.h.Write(b)
	return c
}

// Hex renders the digest as fixed-width lowercase hex, the form artifact
// keys embed.
func (c *CanonHash) Hex() string { return fmt.Sprintf("%016x", c.h.Sum64()) }

// sameInterface reports whether two elaborations expose identical port
// lists (name, direction, width), which data-parallel interchangeable
// copies must.
func sameInterface(a, b *ElabModule) bool {
	if len(a.Module.Ports) != len(b.Module.Ports) {
		return false
	}
	bports := map[string]Port{}
	for _, p := range b.Module.Ports {
		bports[p.Name] = p
	}
	for _, pa := range a.Module.Ports {
		pb, ok := bports[pa.Name]
		if !ok || pa.Dir != pb.Dir {
			return false
		}
		if a.PortWidths[pa.Name] != b.PortWidths[pb.Name] {
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
// clock ticks each) to fresh simulators of a and b. The vector stream is
// sharded into per-worker batches; every vector draws its stimulus from an
// own *rand.Rand seeded by (pairSeed, vector index), so the verdict does
// not depend on how many goroutines ran the batches.
func (c *EquivChecker) simEquivalent(a, b *ElabModule, seed int64) (bool, error) {
	// Probe construction once, sequentially: ErrNotSimulable (blackbox
	// primitives) must surface deterministically before any fan-out.
	if _, err := NewSimulator(c.d, a.Module.Name, publicParams(a)); err != nil {
		return false, err
	}
	if _, err := NewSimulator(c.d, b.Module.Name, publicParams(b)); err != nil {
		return false, err
	}

	workers := c.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > c.Vectors {
		workers = c.Vectors
	}
	// Contiguous vector ranges, one batch per worker. Simulators carry
	// state across SetInput/Settle/Tick, so each batch builds its own
	// pair. A batch stops at its first mismatch or error; batches are
	// reduced in index order so the reported outcome is deterministic.
	type verdict struct {
		mismatch bool
		err      error
	}
	per := (c.Vectors + workers - 1) / workers
	batches := (c.Vectors + per - 1) / per
	results, err := parpool.Map(context.Background(), workers, batches, func(_ context.Context, bi int) (verdict, error) {
		lo := bi * per
		hi := lo + per
		if hi > c.Vectors {
			hi = c.Vectors
		}
		mismatch, err := c.simBatch(a, b, seed, lo, hi)
		return verdict{mismatch: mismatch, err: err}, nil
	})
	if err != nil {
		return false, err
	}
	for _, v := range results {
		if v.err != nil {
			return false, v.err
		}
		if v.mismatch {
			return false, nil
		}
	}
	return true, nil
}

// simBatch runs vectors [lo, hi) against fresh simulators and reports
// whether any vector exposed an output mismatch.
func (c *EquivChecker) simBatch(a, b *ElabModule, seed int64, lo, hi int) (mismatch bool, err error) {
	simA, err := NewSimulator(c.d, a.Module.Name, publicParams(a))
	if err != nil {
		return false, err
	}
	simB, err := NewSimulator(c.d, b.Module.Name, publicParams(b))
	if err != nil {
		return false, err
	}
	inputs := simA.InputPorts()
	outputs := simA.OutputPorts()
	for v := lo; v < hi; v++ {
		// Per-vector source: stimulus depends only on (seed, v), never on
		// batch boundaries.
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
					return true, nil
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
	return false, nil
}
