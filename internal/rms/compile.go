package rms

import (
	"fmt"
	"sync"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/core"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
)

// This file gives the admission service the paper's warm-start deploy: the
// system controller's "database of mapping results" is persisted as a
// content-addressed artifact store, so deploying a known design skips the
// whole decompose → partition → HS-compile pipeline and goes straight to
// placement. The compiler resolves a layer to its accelerator instance
// once (the plan memo), addresses the full compilation product by its
// structural hash, and relies on the store's singleflight guard so N
// concurrent deploys of one design compile exactly once.

// CompilerOptions configures Deploy-triggered compiles and has no field:
// a cold compile runs on the deploying goroutine. The type stays because
// the benchmark names it in its calls to NewCompiler.
type CompilerOptions struct{}

// Compiler ensures the full compilation product of a layer's accelerator
// instance is present in the artifact store. Safe for concurrent use.
type Compiler struct {
	store *artifactstore.Store

	mu    sync.Mutex
	plans map[kernels.LayerSpec]planEntry
}

// planEntry memoizes the layer→instance resolution and its artifact key,
// so a warm PlanKey or Ensure allocates nothing (or a negative verdict, so
// repeated deploys of an undeployable layer stay cheap).
type planEntry struct {
	opts core.Options
	key  artifactstore.Key
	err  error
}

// NewCompiler builds a compiler over the store (nil store = compile cold
// on every miss of the plan memo's instance, without persistence).
func NewCompiler(store *artifactstore.Store, _ CompilerOptions) *Compiler {
	return &Compiler{store: store, plans: map[kernels.LayerSpec]planEntry{}}
}

// plan resolves a layer to the accelerator instance the offline flow
// compiles for it: the smallest feasible single-device instance in the
// database's largest-first device order, falling back to the scaled
// per-piece instance for layers no single device can host.
func (c *Compiler) plan(spec kernels.LayerSpec) planEntry {
	c.mu.Lock()
	pe, ok := c.plans[spec]
	c.mu.Unlock()
	if ok {
		return pe
	}

	tiles, err := chooseTiles(spec)
	pe = planEntry{err: err}
	if err == nil {
		pe.opts = core.Options{
			Tiles:               tiles,
			PartitionIterations: 2, // the database's 1/2/4-device deployments
			Seed:                1,
			PatternAware:        true,
		}
		pe.key = core.CompileKey(pe.opts)
	}
	c.mu.Lock()
	c.plans[spec] = pe
	c.mu.Unlock()
	return pe
}

// chooseTiles picks the instance tile count for a layer, mirroring the
// database's feasibility order.
func chooseTiles(spec kernels.LayerSpec) (int, error) {
	for _, dev := range deviceTypes() {
		if inst, err := perf.ChooseInstance(spec, dev); err == nil {
			return inst.Tiles, nil
		}
	}
	for _, n := range []int{2, 4} {
		if spec.Hidden%n != 0 {
			continue
		}
		for _, dev := range deviceTypes() {
			if tiles, err := perf.MinTilesScaled(spec, dev, n); err == nil {
				return tiles, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: %v", ErrUndeployable, spec)
}

// PlanKey returns the artifact key a deploy of the layer would ensure,
// without compiling anything. Distinct layers that resolve to the same
// accelerator instance share one key — and therefore one cached
// compilation product — because the artifact is the virtualized
// accelerator, not the model loaded onto it.
func (c *Compiler) PlanKey(spec kernels.LayerSpec) (artifactstore.Key, error) {
	pe := c.plan(spec)
	return pe.key, pe.err
}

// Ensure makes the layer's full compilation product present in the
// artifact store and returns it. warm reports a cache hit: the deploy can
// skip straight to placement. The returned artifact is shared and must be
// treated as immutable.
func (c *Compiler) Ensure(spec kernels.LayerSpec) (art *core.Compiled, key artifactstore.Key, warm bool, err error) {
	pe := c.plan(spec)
	if pe.err != nil {
		return nil, "", false, pe.err
	}
	art, warm, err = core.CompileAcceleratorCached(pe.opts, pe.key, c.store)
	return art, pe.key, warm, err
}
