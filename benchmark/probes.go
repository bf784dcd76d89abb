package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/bfp"
	"mlvfpga/internal/cluster"
	"mlvfpga/internal/core"
	"mlvfpga/internal/des"
	"mlvfpga/internal/experiments"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/scenario"
	"mlvfpga/internal/simtest"
	"mlvfpga/internal/snapshot"
	"mlvfpga/internal/wdsl"
)

// The probes below call one layer's public functions directly, a fixed
// number of times, on the shapes the workload uses. They are the leaves
// the peel cannot reach from the serving entry points.

// perCall is the wall time of one call of f: n back-to-back calls are
// timed five times over and the fastest round's mean is taken, since on a
// shared host a round can only be slowed.
func perCall(n int, f func()) time.Duration {
	f()
	var best time.Duration
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0) / time.Duration(n); round == 0 || d < best {
			best = d
		}
	}
	return best
}

// kernelProbes measures accel, bfp, fp16 and snapshot on the workload's
// kernel (or's, which kr steps) and the timed request rq's length.
func kernelProbes(l layers, cfg config, or *oracle, kr *kernelRunner, rq *request) error {
	k := or.k
	h, steps := k.Spec.Hidden, len(rq.inputs)

	// Exact work of one request on a machine of its own.
	before := kr.m.Stats()
	if _, err := kr.run(rq.inputs); err != nil {
		return err
	}
	work := kr.m.Stats().Minus(before)
	l["accel.instructions_per_op"] = float64(work.Instructions)
	l["accel.macs_per_op"] = float64(work.MACs)
	l["accel.vector_ops_per_op"] = float64(work.VectorOps)
	runUS := l["kernels.run_us_per_seq"]
	l["accel.ns_per_instruction"] = 1e3 * runUS / float64(work.Instructions)

	// A warm run of the monolithic program re-issues every m_rd; all of
	// them must be served from the weight-stationary tile cache. (Host
	// writes of inputs must not invalidate weight tiles.)
	before = or.m.Stats()
	if _, err := or.run(rq.inputs); err != nil {
		return err
	}
	tiles := or.m.Stats().Minus(before)
	if n := tiles.TileCacheHits + tiles.TileCacheMisses; n > 0 {
		l["accel.tile_cache_hit_ratio"] = float64(tiles.TileCacheHits) / float64(n)
	}

	// bfp: one h×h mat-vec at the machine's block size, times the
	// request's mv_mul count.
	codec, err := bfp.NewCodec(bfp.DefaultMantissaBits)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	mat := make([]float64, h*h)
	for i := range mat {
		mat[i] = rng.NormFloat64()
	}
	pm, err := codec.QuantizeMatrixPacked(mat, h, h, k.Cfg.NativeDim)
	if err != nil {
		return err
	}
	vec, out := rq.inputs[0], make([]float64, h)
	blocks, err := codec.QuantizeVectorInto(nil, vec, k.Cfg.NativeDim)
	if err != nil {
		return err
	}
	reps := cfg.reps(400)
	matvec := perCall(reps, func() { _ = pm.MatVecInto(out, blocks) }) // shapes checked by the call above
	mvms := kernels.MVMsPerStep(k.Spec.Kind) * steps
	l["bfp.matvec_ns_per_mac"] = float64(matvec.Nanoseconds()) / float64(h*h)
	l["bfp.matvec_us_per_op"] = us(matvec) * float64(mvms)
	l["accel.non_mvm_share"] = 1 - l["bfp.matvec_us_per_op"]/runUS
	quant := perCall(reps, func() { blocks, _ = codec.QuantizeVectorInto(blocks, vec, k.Cfg.NativeDim) })
	l["bfp.quantize_ns_per_elem"] = float64(quant.Nanoseconds()) / float64(h)

	// fp16: the two conversions every vector makes around a mat-vec, and
	// the two activation look-ups of an LSTM gate.
	half, back := make([]fp16.Num, h), make([]float64, h)
	conv := perCall(reps, func() { fp16.FromSlice64Into(half, vec); fp16.ToSlice64Into(back, half) })
	l["fp16.convert_ns_per_elem"] = float64(conv.Nanoseconds()) / float64(2*h)
	lut := perCall(reps, func() {
		for i, n := range half {
			half[i] = fp16.Tanh(fp16.Sigmoid(n))
		}
	})
	l["fp16.lut_ns_per_elem"] = float64(lut.Nanoseconds()) / float64(2*h)

	// snapshot: checkpoint the slot the request just ran in, and bring it
	// back. Preemption is off in every workload; these are the baseline
	// for a later one that turns it on.
	snaps := cfg.reps(50)
	var snap *snapshot.Slot
	l["snapshot.capture_us"] = us(perCall(snaps, func() { snap, err = k.SnapshotSlot(kr.m, 0, steps, steps) }))
	if err != nil {
		return err
	}
	l["snapshot.restore_us"] = us(perCall(snaps, func() { err = k.RestoreSlot(kr.m, 0, snap) }))
	if err != nil {
		return err
	}
	var blob []byte
	l["snapshot.encode_us"] = us(perCall(snaps, func() { blob = snap.Encode() }))
	l["snapshot.decode_us"] = us(perCall(snaps, func() { _, err = snapshot.Decode(blob) }))
	if err != nil {
		return err
	}
	l["snapshot.bytes"] = float64(len(blob))
	return nil
}

// controlProbes measures what set-up is made of — the offline compile, the
// artifact store, admission — and the cluster controller's passes.
func controlProbes(l layers, cfg config, spec kernels.LayerSpec) error {
	newService := func() (*rms.Service, *artifactstore.Store, error) {
		db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
		svc, err := rms.NewService(resource.PaperCluster(), db)
		if err != nil {
			return nil, nil, err
		}
		store := artifactstore.NewMemory(artifactstore.Options{})
		svc.SetCompiler(rms.NewCompiler(store, rms.CompilerOptions{}))
		return svc, store, nil
	}
	svc, store, err := newService()
	if err != nil {
		return err
	}
	t0 := time.Now()
	lease, err := svc.Deploy(spec)
	if err != nil {
		return err
	}
	l["rms_service.deploy_cold_ms"] = ms(time.Since(t0))
	if err := svc.Release(lease.ID); err != nil {
		return err
	}
	deploys := cfg.reps(50)
	var warm, release time.Duration
	for i := 0; i < deploys; i++ {
		t0 = time.Now()
		lease, err = svc.Deploy(spec)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if !lease.WarmDeploy {
			return fmt.Errorf("deploy %d of a compiled design was not warm", i+2)
		}
		if err := svc.Release(lease.ID); err != nil {
			return err
		}
		warm += t1.Sub(t0)
		release += time.Since(t1)
	}
	l["rms_service.deploy_warm_us"] = us(warm / time.Duration(deploys))
	l["rms_service.release_us"] = us(release / time.Duration(deploys))
	st := store.Stats()
	l["artifactstore.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)

	// The artifact the deploys shared, fetched again and compiled again.
	key := artifactstore.Key(lease.ArtifactKey)
	notCalled := func() (any, error) { return nil, errors.New("warm key recomputed") }
	var art any
	l["artifactstore.get_warm_us"] = us(perCall(cfg.reps(200), func() { art, _, err = store.GetOrCompute(key, core.CompiledCodec, notCalled) }))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := core.CompileAccelerator(art.(*core.Compiled).Opts); err != nil {
		return err
	}
	l["core.compile_cold_ms"] = ms(time.Since(t0))

	// cluster: the paper cluster loaded with as many leases of the spec
	// as it admits (at most 8), controller on a clock that stands still so
	// no device decays.
	svc, _, err = newService()
	if err != nil {
		return err
	}
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	defer dp.Close()
	cp := cluster.New(cluster.NewFakeClock(time.Unix(0, 0)), cluster.DefaultConfig(), svc, dp)
	for i := 0; i < 8; i++ {
		if _, err := svc.Deploy(spec); err != nil {
			if errors.Is(err, rms.ErrNoCapacity) {
				break
			}
			return err
		}
	}
	devices := cp.Registry().Snapshot()
	base := metrics.Counters()["mlv_migrations"]
	l["cluster.tick_us"] = us(perCall(cfg.reps(50), func() { cp.Tick() }))
	i := 0
	beat := perCall(cfg.reps(4000), func() { _ = cp.Heartbeat(devices[i%len(devices)].ID); i++ }) // ids come from the registry itself
	l["cluster.heartbeat_ns"] = float64(beat.Nanoseconds())
	l["cluster.defrag_us"] = us(perCall(cfg.reps(50), func() { cp.Defrag() }))
	l["cluster.migrations"] = float64(metrics.Counters()["mlv_migrations"] - base)
	return nil
}

// The scenario engine's settle phase, which the replay below mirrors: 12
// heartbeat+tick+check rounds one virtual second apart after the
// described duration (internal/scenario/engine.go).
const (
	settleRounds = 12
	settlePeriod = time.Second
)

// replayScenario drives a simtest.Stack through the script scenario.Run
// plays for spec — the same stack options, deploys, heartbeat and tick
// cadence, storm sizes, settle rounds and final audit, and as many sampled
// inferences as rep says that run executed — with a span around every
// stack call. Storm victims and the inferences' instants are the replay's
// own draws, so it costs what the run costs without reproducing its trace.
func replayScenario(tr *tracer, op int, parent string, spec *wdsl.Spec, rep *scenario.Report) (ok bool, err error) {
	ir := spec.Scenario
	o := simtest.DefaultOptions(ir.Seed)
	o.Cluster = ir.Cluster
	o.Tenants = spec.Tenants
	o.Infer.Seed = ir.Seed
	var stack *simtest.Stack
	tr.do(op, "simtest_newstack", parent, func() { stack, err = simtest.NewStack(o) })
	if err != nil {
		return false, err
	}
	defer tr.do(op, "simtest_close", parent, stack.Close)

	type leaseRef struct {
		id     int
		tenant string
	}
	var leases []leaseRef
	for _, d := range ir.Deploys {
		for r := 0; r < d.Replicas; r++ {
			for _, layer := range spec.ByName[d.Model].Layers {
				var lease *rms.Lease
				tr.do(op, "simtest_deploy", parent, func() { lease, _ = stack.Deploy(layer.Rnn, d.Tenant) })
				if lease == nil {
					return false, fmt.Errorf("replay: deploy of %q shed or violated: %v", d.Model, stack.Violation())
				}
				leases = append(leases, leaseRef{lease.ID, d.Tenant})
			}
		}
	}
	eng := stack.Engine()
	at := func(t time.Duration, name string, f func()) {
		// Scheduling forward from time zero cannot be in the past.
		_ = eng.At(t, func(time.Duration) { tr.do(op, name, parent, f) })
	}
	for t := ir.Heartbeat; t <= ir.Duration; t += ir.Heartbeat {
		at(t, "simtest_heartbeat", func() { stack.HeartbeatAll() })
	}
	for t := ir.Tick; t <= ir.Duration; t += ir.Tick {
		at(t, "simtest_tick", func() { stack.Tick() })
	}
	pool := stack.Devices()
	rng := rand.New(rand.NewSource(ir.Seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, st := range ir.Storms {
		victims := pool[:st.Devices]
		pool = pool[st.Devices:]
		kill := st.Kind == "kill"
		for _, d := range victims {
			d := d
			at(st.At, "simtest_kill", func() {
				if kill {
					stack.Kill(d)
				} else {
					stack.Drain(d)
				}
			})
			if st.For > 0 {
				at(min(st.At+st.For, ir.Duration), "simtest_kill", func() {
					if kill {
						stack.Revive(d)
					} else {
						stack.Undrain(d)
					}
				})
			}
		}
	}
	for i := 0; i < rep.Sampled; i++ {
		lr := leases[i%len(leases)]
		seed := int64(i % 8)
		at(ir.Duration*time.Duration(i+1)/time.Duration(rep.Sampled+1), "simtest_serve", func() {
			stack.Serve(lr.id, lr.tenant, []int64{seed})
		})
	}
	for k := 1; k <= settleRounds; k++ {
		at(ir.Duration+time.Duration(k)*settlePeriod, "simtest_settle", func() { stack.Settle() })
	}
	tr.do(op, "simtest_events", parent, func() { eng.Run(0) })
	tr.do(op, "simtest_check", parent, func() { stack.CheckStranded() })
	return stack.Violation() == nil, nil
}

// pass runs scenario/replay pairs until the pass budget is spent, recording
// spans if tr is not nil, and returns how long each scenario.Run took.
func (f *fleet) pass(cfg config, tr *tracer, tl *tally) ([]time.Duration, error) {
	var out []time.Duration
	var replayErr error
	op0 := tr.ops()
	cfg.repeatFor(3, func(n int) {
		ok := false
		out = append(out, tr.do(op0+n, "scenario_run", "", func() { ok = f.op(n) }))
		tl.add(ok)
		if ok && replayErr == nil {
			ok, replayErr = replayScenario(tr, op0+n, "scenario_run", f.specs[n%len(f.specs)], f.last)
			tl.add(ok)
		}
	})
	return out, replayErr
}

// simulatorLayers measures fleet_sim's layers: scenario.Run as a whole,
// untraced and traced, the same script replayed op by op on a
// simtest.Stack, and the DSL front end.
func simulatorLayers(l layers, cfg config, tr *tracer, tl *tally) error {
	f := &fleet{}
	if err := f.setUp(cfg); err != nil {
		return err
	}
	var plain, traced []time.Duration
	var err error
	// The untraced pass doubles as the loaded phase: the slot counters
	// move with the inferences the scenarios sample onto the real stack.
	slotCounters(l, func() { plain, err = f.pass(cfg, nil, tl) })
	if err != nil {
		return err
	}
	if traced, err = f.pass(cfg, tr, tl); err != nil {
		return err
	}
	l["trace.overhead_ratio"] = float64(median(traced))/float64(median(plain)) - 1

	dur := tr.byName()
	// The replay's stack calls against the run they mirror. simtest_events
	// is the DES loop that contains the scheduled calls, so it is left out
	// of the sum.
	var sum time.Duration
	for name, ds := range dur {
		if !strings.HasPrefix(name, "simtest_") || name == "simtest_events" {
			continue
		}
		for _, d := range ds {
			sum += d
		}
	}
	runD := median(dur["scenario_run"])
	l["trace.closing_error_ratio"] = math.Abs(float64(runD)-float64(sum)/float64(len(traced))) / float64(runD)

	l["scenario.run_ms"] = ms(runD)
	rep := f.last
	l["scenario.arrivals_per_s"] = float64(rep.Arrivals) / runD.Seconds()
	if lat := rep.Classes["latency"]; lat != nil {
		l["scenario.sim_p99_ms"] = lat.P99Ms
	}
	var reqs, shed int
	for _, c := range rep.Classes {
		reqs += c.Requests
		shed += c.Shed
	}
	l["scenario.sim_shed_ratio"] = float64(shed) / float64(reqs)
	l["simtest.newstack_ms"] = ms(median(dur["simtest_newstack"]))
	l["simtest.deploy_us"] = us(median(dur["simtest_deploy"]))
	l["simtest.serve_us"] = us(median(dur["simtest_serve"]))
	l["simtest.tick_us"] = us(median(dur["simtest_tick"]))
	l["simtest.kill_us"] = us(median(dur["simtest_kill"]))
	l["simtest.check_us"] = us(median(dur["simtest_check"]))
	l["wdsl.parse_compile_ms"] = ms(perCall(cfg.reps(4), func() {
		if file, err := wdsl.Parse(fleetSource); err == nil {
			_, _ = wdsl.Compile(file) // compiled once without error by setUp
		}
	}))
	return nil
}

// fixedProbes measures the two layers no workload's shape reaches: the
// event queue alone, and the paper's Fig. 12 scheduler simulation.
func fixedProbes(l layers, cfg config) error {
	// des: schedule and execute events whose callback does nothing.
	events := cfg.reps(200000)
	eng := des.New()
	t0 := time.Now()
	for i := 0; i < events; i++ {
		_ = eng.At(time.Duration(i%1000), func(time.Duration) {}) // never in the past: the clock is still at zero
	}
	for eng.Step() {
	}
	l["des.ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / float64(events)

	// rms_sched: the Fig. 12 simulation, one worker, default size. The
	// speed-up is simulated time over simulated time and repeats exactly.
	opt := experiments.DefaultFig12Options()
	opt.Parallelism = 1
	if cfg.smoke {
		opt.NumTasks = 30
	}
	t0 = time.Now()
	sum, err := experiments.Fig12(opt)
	if err != nil {
		return err
	}
	l["rms_sched.fig12_set_ms"] = ms(time.Since(t0)) / float64(len(sum.Rows))
	l["rms_sched.fig12_speedup_vs_baseline"] = sum.AvgVsBaseline
	return nil
}
