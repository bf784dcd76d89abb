package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/tenant"
)

// span is one timed call into a layer, made from this package. Spans of
// one op share Op; Parent names the span of the same op that enters the
// system one layer further out ("" for the outermost).
//
// The spans of an op are not nested in time. The program under test has no
// tracing of its own yet, so the layers are separated by peeling: the same
// input is sent, one call after another, through successively deeper
// public entry points, and a layer's self time is its span's duration
// minus its child's.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer times
// without recording, which is the untraced pass.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) do(op int, name, parent string, f func()) time.Duration {
	s := time.Now()
	f()
	e := time.Now()
	if t != nil {
		t.spans = append(t.spans, span{op, name, parent, s.Sub(t.epoch).Nanoseconds(), e.Sub(t.epoch).Nanoseconds()})
	}
	return e.Sub(s)
}

// ops is the next unused op number.
func (t *tracer) ops() int {
	if t == nil || len(t.spans) == 0 {
		return 0
	}
	return t.spans[len(t.spans)-1].Op + 1
}

// byName groups span durations by span name.
func (t *tracer) byName() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(cfg config, h host) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
	blob, err := json.Marshal(traceFile{h, cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// layers collects the traced run's metrics by name.
type layers map[string]float64

// values lays the collected metrics out in declaration order; a declared
// metric nobody set is left out, which report.check refuses.
func (l layers) values() []value {
	var out []value
	for _, d := range perLayer {
		if v, ok := l[d.name]; ok {
			out = append(out, value{Name: d.name, Value: v, Unit: d.unit})
		}
	}
	return out
}

// tally counts the traced run's checked operations.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// passBudget is how long each pass of a traced run lasts, as a share of
// -seconds: the loaded phase, the untraced pass and the traced pass take
// one each and the fixed-count probes the rest, so a traced run lasts
// about as long as an end-to-end one.
func (c config) passBudget() time.Duration { return c.window() / 4 }

// repeatFor calls f with 0, 1, 2, … until the budget is spent (at least
// minOps times), or exactly minOps times in smoke mode.
func (c config) repeatFor(minOps int, f func(n int)) {
	t0 := time.Now()
	for n := 0; n < minOps || (!c.smoke && time.Since(t0) < c.passBudget()); n++ {
		f(n)
	}
}

// reps is a probe's fixed call count: n, or a twentieth of it in smoke mode.
func (c config) reps(n int) int {
	if c.smoke {
		return max(n/20, 1)
	}
	return n
}

// observations are the InferResult fields the loaded phase gathers.
type observations struct {
	mu        sync.Mutex
	queueWait []time.Duration
	batchSize int
	n         int
}

func (o *observations) add(queueWait time.Duration, batchSize int) {
	o.mu.Lock()
	o.queueWait = append(o.queueWait, queueWait)
	o.batchSize += batchSize
	o.n++
	o.mu.Unlock()
}

func (o *observations) into(l layers) {
	sort.Slice(o.queueWait, func(i, j int) bool { return o.queueWait[i] < o.queueWait[j] })
	l["rms_dataplane.queue_wait_us_p50"] = us(percentile(o.queueWait, 0.50))
	l["rms_dataplane.queue_wait_us_p95"] = us(percentile(o.queueWait, 0.95))
	l["rms_dataplane.batch_size_mean"] = float64(o.batchSize) / float64(o.n)
}

// slotCounters reads the data plane's counters as deltas over f: mean
// cohort per step round, share of admissions that joined a running batch,
// and steals per thousand inferences served.
func slotCounters(l layers, f func()) {
	base, served := metrics.SlotCounters(), metrics.InfersServed.Value()
	f()
	cur := metrics.SlotCounters()
	d := func(name string) float64 { return float64(cur[name] - base[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l["rms_dataplane.slot_occupancy_mean"] = ratio(d("mlv_slot_round_occupancy"), d("mlv_slot_rounds"))
	l["rms_dataplane.admit_into_running_ratio"] = ratio(d("mlv_admissions_into_running"), d("mlv_admissions"))
	l["rms_dataplane.steals_per_kop"] = ratio(1000*d("mlv_steals"), float64(metrics.InfersServed.Value()-served))
}

// kernelRunner is a benchmark-owned warm machine that executes a request
// the way a serving slot does — inputs in, StreamInit, one Step per
// timestep, outputs out — with no data plane around it.
type kernelRunner struct {
	k *kernels.Kernel
	m *accel.Machine
}

func newKernelRunner(k *kernels.Kernel) (*kernelRunner, error) {
	m, err := k.NewBatchMachine(1)
	if err != nil {
		return nil, err
	}
	if err := m.Run(k.SharedInit); err != nil {
		return nil, err
	}
	return &kernelRunner{k: k, m: m}, nil
}

func (r *kernelRunner) run(inputs [][]float64) ([][]float64, error) {
	k, m := r.k, r.m
	for t, x := range inputs {
		if err := k.SetInput(m, t, x); err != nil {
			return nil, err
		}
	}
	slot := []int{0}
	if err := m.RunStreams(k.StreamInit, k.WindowBase(), slot, []int{k.SlotOffset(0, 0)}); err != nil {
		return nil, err
	}
	for tau := range inputs {
		if err := m.RunStreams(k.Step, k.WindowBase(), slot, []int{k.SlotOffset(0, tau)}); err != nil {
			return nil, err
		}
	}
	outs := make([][]float64, len(inputs))
	for t := range outs {
		var err error
		if outs[t], err = k.ReadOutput(m, t); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// level is one entry point of the serving peel.
type level struct {
	name, parent string
	do           func(rq *request) bool
}

// servePeel sends one request through every entry point of the serving
// path, outermost first:
//
//	serve              signed POST through guard → control plane → data plane (the mlv-serve chain)
//	  guard_nop        the same client call against Guard.Wrap(no-op handler)
//	    loadgen_nop    the same client call against the no-op handler alone
//	  dataplane_handler  the same client call against DataPlane.Handler() with no guard
//	    infer_as       DataPlane.InferAs
//	      kernels_run  the benchmark-owned warm machine
//
// The no-op handler answers with the request's correct outputs, so the
// client's checking cost is in every HTTP level alike.
type servePeel struct {
	levels []level
	kr     *kernelRunner
	obs    observations
	// nop answers any request with cur's correct outputs.
	nop http.Handler
	cur *request
}

func newServePeel(st *serveStack, or *oracle) (*servePeel, error) {
	kr, err := newKernelRunner(or.k)
	if err != nil {
		return nil, err
	}
	p := &servePeel{kr: kr}
	p.nop = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{"))
		_, _ = w.Write(p.cur.want)
		_, _ = w.Write([]byte("}\n")) // writes into the caller's buffer, which cannot fail
	})
	guardNop := st.guard.Wrap(p.nop)
	// The unguarded handler still sees the caller as the latency tenant,
	// as it would behind the guard.
	lat := tenant.Tenant{ID: latTenant, Key: latKey, Class: tenant.Latency}
	inner := st.dp.Handler()
	dataplane := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r.WithContext(tenant.WithTenant(r.Context(), lat)))
	})
	hc := newHTTPCaller(1 << 20) // a nonce prefix no workload client uses
	post := func(h http.Handler) func(*request) bool {
		return func(rq *request) bool { p.cur = rq; return hc.post(h, rq) }
	}
	p.levels = []level{
		{"serve", "", post(st.handler)},
		{"guard_nop", "serve", post(guardNop)},
		{"loadgen_nop", "guard_nop", post(p.nop)},
		{"dataplane_handler", "serve", post(dataplane)},
		{"infer_as", "dataplane_handler", func(rq *request) bool {
			res, err := st.dp.InferAs(latTenant, st.lease.ID, rq.inputs)
			if err != nil {
				return false
			}
			p.obs.add(res.QueueWait, res.BatchSize)
			return equalBits(res.Outputs, rq.golden)
		}},
		{"kernels_run", "infer_as", func(rq *request) bool {
			outs, err := kr.run(rq.inputs)
			return err == nil && equalBits(outs, rq.golden)
		}},
	}
	return p, nil
}

// allocsPerOp is the mean number of heap allocations one call of the level
// makes, background goroutines included.
func (lv level) allocsPerOp(reqs []request, n int) float64 {
	var m0, m1 runtime.MemStats
	lv.do(&reqs[0])
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		lv.do(&reqs[i%len(reqs)])
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// pass sends requests through every level in turn until the pass budget
// is spent, recording spans if tr is not nil, and returns how long the
// named root level took each time. The untraced pass is this with a nil
// tracer, so the two differ in nothing but the recording.
func (p *servePeel) pass(cfg config, tr *tracer, reqs []request, tl *tally, root string) []time.Duration {
	var out []time.Duration
	op0 := tr.ops()
	cfg.repeatFor(8, func(n int) {
		rq := &reqs[n%len(reqs)]
		for _, lv := range p.levels {
			var ok bool
			d := tr.do(op0+n, lv.name, lv.parent, func() { ok = lv.do(rq) })
			tl.add(ok)
			if lv.name == root {
				out = append(out, d)
			}
		}
	})
	return out
}

// into fills the serving layers' metrics from the traced pass's spans.
func (p *servePeel) into(l layers, cfg config, tr *tracer, reqs []request) {
	dur := tr.byName()
	med := func(name string) float64 { return us(median(dur[name])) }
	serve, guardNop, loadgen := med("serve"), med("guard_nop"), med("loadgen_nop")
	handler, inferAs, kern := med("dataplane_handler"), med("infer_as"), med("kernels_run")
	l["loadgen.self_us_per_op"] = loadgen
	l["tenant.guard_us_per_op"] = guardNop - loadgen
	l["rms_http.codec_us_per_op"] = handler - loadgen - inferAs
	l["rms_dataplane.self_us_per_op"] = inferAs - kern
	l["kernels.run_us_per_seq"] = kern
	// The five self times above sum to guard_nop + dataplane_handler −
	// loadgen_nop (the client's own cost is inside both HTTP children, so
	// it is taken off once). What the full chain costs beyond that — the
	// control plane's mux, and anything the layers cost each other — is
	// the closing error.
	sum := guardNop + handler - loadgen
	l["trace.closing_error_ratio"] = math.Abs(serve-sum) / serve

	a := map[string]float64{}
	for _, lv := range p.levels {
		a[lv.name] = lv.allocsPerOp(reqs, cfg.reps(64))
	}
	l["loadgen.allocs_per_op"] = a["loadgen_nop"]
	l["tenant.guard_allocs_per_op"] = a["guard_nop"] - a["loadgen_nop"]
	l["rms_http.allocs_per_op"] = a["dataplane_handler"] - a["loadgen_nop"] - a["infer_as"]
	l["rms_dataplane.allocs_per_op"] = a["infer_as"] - a["kernels_run"]
}

// defaultSkewNonces is the replay-table size guardAtDefault measures at:
// what one tenant has inside the window after 5 s of serve_small's traffic
// or 40 s of serve_compute's.
const defaultSkewNonces = 16384

// guardAtDefault is the guard's self time per request as mlv-serve
// configures it — MaxSkew at its 2-minute default, not the workloads'
// guardSkew — once one tenant has defaultSkewNonces requests inside the
// replay window. The workloads cannot run at the default (see guardSkew),
// so this is the number a change to the nonce table is judged on.
func (p *servePeel) guardAtDefault(cfg config, reg *tenant.Registry, rq *request) (float64, error) {
	h := tenant.NewGuard(reg, tenant.GuardOptions{}).Wrap(p.nop)
	hc := newHTTPCaller(1<<20 + 1)
	p.cur = rq
	for i, n := 0, cfg.reps(defaultSkewNonces); i < n; i++ {
		if !hc.post(h, rq) {
			return 0, fmt.Errorf("guard at its default options refused request %d of %d", i+1, n)
		}
	}
	calls := cfg.reps(100)
	guarded := perCall(calls, func() { hc.post(h, rq) })
	bare := perCall(calls, func() { hc.post(p.nop, rq) })
	return us(guarded - bare), nil
}

// servingLayers measures the serving path's layers on w: the single-client
// peel untraced and traced, w's own clients for the numbers that only exist
// under its concurrency, and the probes below the peel.
func servingLayers(l layers, cfg config, tr *tracer, tl *tally, w serveWorkload) error {
	in, err := w.makeInputs(cfg.seed)
	if err != nil {
		return err
	}
	st, err := w.setUp(in, cfg)
	if err != nil {
		return err
	}
	defer st.close()
	peel, err := newServePeel(st, in.oracle)
	if err != nil {
		return err
	}

	root := "serve"
	if !w.http {
		root = "infer_as"
	}
	plain := peel.pass(cfg, nil, in.timed, tl, root)
	traced := peel.pass(cfg, tr, in.timed, tl, root)
	l["trace.overhead_ratio"] = float64(median(traced))/float64(median(plain)) - 1
	peel.into(l, cfg, tr, in.timed)

	// Loaded phase. It comes after the single-client passes so that they do
	// not inherit its four seconds of nonces.
	var loaded observations
	st.obs = &loaded
	slotCounters(l, func() {
		var res *windowResult
		if res, err = measure(st.clients, cfg.passBudget(), 1, smokeOps, st.warmRate/float64(len(st.clients))); err == nil {
			tl.attempted += res.attempted
			tl.failed += res.failed
		}
	})
	st.obs = nil
	if err != nil {
		return err
	}
	loaded.into(l)

	if l["tenant.guard_us_per_op_16k_nonces"], err = peel.guardAtDefault(cfg, st.reg, &in.timed[0]); err != nil {
		return err
	}
	if err := kernelProbes(l, cfg, in.oracle, peel.kr, &in.timed[0]); err != nil {
		return err
	}
	return controlProbes(l, cfg, w.spec)
}

// referenceSeconds is the -seconds the reference half of a traced run gets:
// half a second per pass, against a quarter of the window for the
// workload's own half.
const referenceSeconds = 2

// traceRun is the traced run of any workload. The driver's contract is that
// a run with --trace 1 reports "every per_layer metric", whichever workload
// it is. So besides the layers the workload crosses, a traced run measures
// the layers it does not cross on a reference, by the same code on a
// referenceSeconds budget: a serving workload runs fleet_sim's scenario,
// and fleet_sim peels serve_small, whose kernel shape its sampled
// inferences have. A metric both halves produce is the workload's own.
func traceRun(cfg config) (*report, error) {
	tl := &tally{}
	tr := &tracer{epoch: time.Now()}
	own, other := layers{}, layers{}
	ref := cfg
	ref.seconds = referenceSeconds

	var err error
	if w, ok := findServe(cfg.workload); ok {
		if err = servingLayers(own, cfg, tr, tl, w); err == nil {
			err = simulatorLayers(other, ref, tr, tl)
		}
	} else {
		w, _ = findServe("serve_small")
		if err = simulatorLayers(own, cfg, tr, tl); err == nil {
			err = servingLayers(other, ref, tr, tl, w)
		}
	}
	if err == nil {
		err = fixedProbes(own, cfg)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range other {
		if _, have := own[name]; !have {
			own[name] = v
		}
	}
	return finishTrace(cfg, own, tr, tl)
}

func finishTrace(cfg config, l layers, tr *tracer, tl *tally) (*report, error) {
	rep := cfg.newReport(nil)
	rep.WindowSeconds = cfg.window().Seconds()
	rep.SegmentSeconds = cfg.passBudget().Seconds()
	rep.Metrics = l.values()
	// The span medians the layer metrics were subtracted from, so the
	// table can be checked without opening the trace file.
	dur := tr.byName()
	names := make([]string, 0, len(dur))
	for name := range dur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Diagnostics = append(rep.Diagnostics, value{Name: "span." + name + "_us", Value: us(median(dur[name])), Unit: "us", Samples: len(dur[name])})
	}
	rep.Attempted, rep.Failed = tl.attempted, tl.failed
	rep.OK = tl.attempted - tl.failed
	var err error
	if rep.TraceFile, err = tr.write(cfg, rep.Host); err != nil {
		return nil, err
	}
	return rep, nil
}

// observe records what the loaded phase wants out of a 200 /infer body.
func (o *observations) observe(body []byte) {
	var got rms.InferResult
	if json.Unmarshal(body, &got) == nil {
		o.add(got.QueueWait, got.BatchSize)
	}
}
