package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/cluster"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

// The serving workloads share one deployment shape — a single lease on the
// paper cluster served by 2 machines of 8 slots, mlv-serve's defaults —
// and differ in the layer, the entry point and the traffic.
const (
	serveMachines = 2
	serveSlots    = 8
	// requestPool is how many distinct pre-built requests clients cycle
	// through: enough that no two in-flight requests share inputs.
	requestPool = 64
	// batchClients + probeClients are serve_batched's 16 outstanding
	// requests.
	batchClients = 14
	probeClients = 2
	// probeSteps is the fixed length of serve_batched's latency probes.
	probeSteps = 2
	// firstLease is the id a fresh rms.Service gives its first lease;
	// goldens are computed for it before any stack exists and set-up
	// checks the assumption.
	firstLease = 1

	latTenant, latKey = "lat", "lat-key"
	batTenant, batKey = "bat", "bat-key"
)

// guardSkew is the request-timestamp skew the benchmark's guard accepts.
// The guard remembers every nonce for 2×MaxSkew and walks that table on
// each request; at mlv-serve's default of 2 minutes the table never
// reaches a steady size inside a run and fills (65 536 entries, after
// which every request is refused) within 15 s of serve_small. At 2 s the
// table holds four seconds of traffic, which it reaches during the first
// segment. Timestamps are whole seconds, so 2 s is the smallest skew that
// can never refuse a request signed a moment ago.
//
// The workloads therefore do not measure the guard as production runs it.
// The traced run does: tenant.guard_us_per_op_16k_nonces is its cost at the
// default MaxSkew (guardAtDefault in trace.go), and README.md records the
// defect — a tenant above 273 requests/s is refused outright — for its own
// issue.
const guardSkew = 2 * time.Second

type serveWorkload struct {
	name  string
	spec  kernels.LayerSpec
	tiles int
	// http sends signed POST /infer through the mlv-serve handler chain
	// from GOMAXPROCS latency-class clients; otherwise batchClients
	// batch-class and probeClients latency-class callers use InferAs.
	http    bool
	warmups int
}

var serveWorkloads = []serveWorkload{
	{name: "serve_compute", spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 8}, tiles: 2, http: true, warmups: 400},
	{name: "serve_small", spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 2}, tiles: 1, http: true, warmups: 6000},
	{name: "serve_batched", spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 128, TimeSteps: 16}, tiles: 1, http: false, warmups: 2000},
}

func findServe(name string) (serveWorkload, bool) {
	for _, w := range serveWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return serveWorkload{}, false
}

func (w serveWorkload) inferOptions(seed int64) rms.InferOptions {
	o := rms.DefaultInferOptions()
	o.Machines = serveMachines
	o.MaxBatch = serveSlots
	o.Tiles = w.tiles
	o.Seed = seed
	return o
}

// request is one pre-built inference with its expected answer.
type request struct {
	inputs [][]float64
	golden [][]float64
	// body is the POST /infer JSON and want the `"outputs":[[...]]` text a
	// correct response must contain (HTTP workloads only).
	body, want []byte
}

// oracle is the benchmark-owned machine goldens come from. It is built by
// the rule the data plane documents for a lease's weights —
// RandomWeights(kind, hidden, InferOptions.Seed + lease id) — and runs the
// monolithic program, while the serving engine runs the step programs, so
// a served output that matches was computed by a different path.
type oracle struct {
	k *kernels.Kernel
	m *accel.Machine
}

func newOracle(spec kernels.LayerSpec, tiles int, inferSeed int64, leaseID int) (*oracle, error) {
	w := kernels.RandomWeights(spec.Kind, spec.Hidden, inferSeed+int64(leaseID))
	k, err := kernels.Build(w, spec.TimeSteps, tiles)
	if err != nil {
		return nil, err
	}
	m, err := k.NewBatchMachine(1)
	if err != nil {
		return nil, err
	}
	return &oracle{k: k, m: m}, nil
}

// run returns the hidden state after each supplied timestep. The layer is
// causal, so a short sequence's outputs are the leading outputs of the
// full program run over it.
func (o *oracle) run(inputs [][]float64) ([][]float64, error) {
	for t, x := range inputs {
		if err := o.k.SetInput(o.m, t, x); err != nil {
			return nil, err
		}
	}
	if err := o.m.Run(o.k.Prog); err != nil {
		return nil, err
	}
	outs := make([][]float64, len(inputs))
	for t := range outs {
		var err error
		if outs[t], err = o.k.ReadOutput(o.m, t); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// serveInputs is everything a serving workload derives from -seed.
type serveInputs struct {
	// timed are the requests the HTTP clients or the latency-class probes
	// send, which the traced run peels; flood is the batch tenant's
	// length-mixed pool (serve_batched only).
	timed, flood []request
	// orders holds one visiting order per client.
	orders [][]int
	// oracle computed the goldens; the traced run reuses its kernel.
	oracle *oracle
}

func (w serveWorkload) makeInputs(seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	or, err := newOracle(w.spec, w.tiles, seed, firstLease)
	if err != nil {
		return nil, err
	}
	// Requests the timed clients send are JSON-encoded even when the
	// workload calls InferAs directly: the traced run peels the HTTP
	// layers on them.
	build := func(steps int, encode bool) (request, error) {
		rq := request{inputs: make([][]float64, steps)}
		for t := range rq.inputs {
			x := make([]float64, w.spec.Hidden)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			rq.inputs[t] = x
		}
		if rq.golden, err = or.run(rq.inputs); err != nil {
			return rq, err
		}
		if encode {
			rq.body, err = json.Marshal(struct {
				ID     int         `json:"id"`
				Inputs [][]float64 `json:"inputs"`
			}{firstLease, rq.inputs})
			if err != nil {
				return rq, err
			}
			out, err := json.Marshal(rq.golden)
			if err != nil {
				return rq, err
			}
			rq.want = append([]byte(outputsKey), out...)
		}
		return rq, nil
	}
	in := &serveInputs{oracle: or}
	nclients := runtime.GOMAXPROCS(0)
	if w.http {
		for i := 0; i < requestPool; i++ {
			rq, err := build(w.spec.TimeSteps, true)
			if err != nil {
				return nil, err
			}
			in.timed = append(in.timed, rq)
		}
	} else {
		nclients = batchClients + probeClients
		for i := 0; i < requestPool/8; i++ {
			rq, err := build(probeSteps, true)
			if err != nil {
				return nil, err
			}
			in.timed = append(in.timed, rq)
		}
		// The inferbench length mix with exact proportions, so that the
		// mix does not vary with the seed: of every five requests two
		// have 1 timestep, two have 2 and one fills the window. Only the
		// order is drawn.
		for i := 0; i < requestPool/5*5; i++ {
			steps := []int{1, 2, 1, 2, w.spec.TimeSteps}[i%5]
			rq, err := build(steps, false)
			if err != nil {
				return nil, err
			}
			in.flood = append(in.flood, rq)
		}
	}
	for c := 0; c < nclients; c++ {
		n := len(in.timed)
		if !w.http && c < batchClients {
			n = len(in.flood)
		}
		in.orders = append(in.orders, rng.Perm(n))
	}
	return in, nil
}

// serveStack is one built serving process, wired the way cmd/mlv-serve
// wires it, minus the listener and the background heartbeat/tick loops.
type serveStack struct {
	svc     *rms.Service
	dp      *rms.DataPlane
	reg     *tenant.Registry
	guard   *tenant.Guard
	handler http.Handler // guard → control plane → data plane
	lease   *rms.Lease
	clients []*client
	// warmRate is the warm-up's completion rate, which sizes the sample
	// buffers so they do not grow inside the window.
	warmRate float64
	// obs, set only during a traced run's loaded phase, receives each
	// answer's queue wait and batch size.
	obs *observations
}

func (s *serveStack) close() {
	s.dp.Close()
	_ = s.svc.Release(s.lease.ID) // the lease is live, so this cannot fail; the stack is discarded either way
}

// setUp builds a stack from cold, deploys the workload's lease, attaches
// the clients and sends the fixed number of warm-up requests. Its wall
// time is setup_s.
func (w serveWorkload) setUp(in *serveInputs, cfg config) (*serveStack, error) {
	warmups := w.warmups
	if cfg.smoke {
		warmups = 2 * len(in.orders)
	}
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.PaperCluster(), db)
	if err != nil {
		return nil, err
	}
	store, err := artifactstore.Open("", artifactstore.Options{})
	if err != nil {
		return nil, err
	}
	svc.SetCompiler(rms.NewCompiler(store, rms.CompilerOptions{}))
	dp := rms.NewDataPlane(svc, w.inferOptions(cfg.seed))
	reg, err := tenant.NewRegistry(
		tenant.Tenant{ID: latTenant, Key: latKey, Class: tenant.Latency},
		tenant.Tenant{ID: batTenant, Key: batKey, Class: tenant.Batch},
	)
	if err != nil {
		return nil, err
	}
	svc.SetTenants(reg)
	dp.SetTenants(reg)
	cp := cluster.New(cluster.WallClock{}, cluster.DefaultConfig(), svc, dp)
	guard := tenant.NewGuard(reg, tenant.GuardOptions{MaxSkew: guardSkew})
	s := &serveStack{
		svc: svc, dp: dp, reg: reg, guard: guard,
		handler: guard.Wrap(cp.Handler(dp.Handler())),
	}
	if s.lease, err = svc.DeployWith(w.spec, rms.PlaceOptions{Tenant: latTenant}); err != nil {
		dp.Close()
		return nil, fmt.Errorf("deploy %v: %w", w.spec, err)
	}
	if s.lease.ID != firstLease {
		s.close()
		return nil, fmt.Errorf("fresh service gave lease id %d, goldens assume %d", s.lease.ID, firstLease)
	}
	for c, order := range in.orders {
		order := order
		switch {
		case w.http:
			hc := newHTTPCaller(c)
			s.clients = append(s.clients, &client{op: func(n int) bool {
				ok := hc.post(s.handler, &in.timed[order[n%len(order)]])
				if ok && s.obs != nil {
					s.obs.observe(hc.rw.buf.Bytes())
				}
				return ok
			}})
		case c < batchClients:
			s.clients = append(s.clients, &client{op: func(n int) bool {
				return s.inferAs(batTenant, &in.flood[order[n%len(order)]])
			}})
		default:
			s.clients = append(s.clients, &client{op: func(n int) bool {
				return s.inferAs(latTenant, &in.timed[order[n%len(order)]])
			}})
		}
	}
	per := (warmups + len(s.clients) - 1) / len(s.clients)
	t0 := time.Now()
	drive(s.clients, t0, 0, per)
	s.warmRate = float64(per*len(s.clients)) / time.Since(t0).Seconds()
	for _, c := range s.clients {
		for _, sm := range c.samples {
			if !sm.ok {
				s.close()
				return nil, fmt.Errorf("%s: a warm-up request failed or returned a wrong output", w.name)
			}
		}
	}
	return s, nil
}

// inferAs is serve_batched's op: a direct data-plane call whose outputs
// must equal the golden bit for bit.
func (s *serveStack) inferAs(who string, rq *request) bool {
	res, err := s.dp.InferAs(who, s.lease.ID, rq.inputs)
	if err != nil {
		return false
	}
	if s.obs != nil {
		s.obs.add(res.QueueWait, res.BatchSize)
	}
	return equalBits(res.Outputs, rq.golden)
}

func equalBits(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for t := range want {
		if len(got[t]) != len(want[t]) {
			return false
		}
		for i, v := range want[t] {
			if math.Float64bits(got[t][i]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

const outputsKey = `"outputs":`

// outputsMatch checks a 200 response body. encoding/json prints the
// shortest text that round-trips a float64, so equal text means equal
// bits and the common case is one byte comparison; if a later encoder
// prints the same numbers differently the body is decoded and compared
// bit by bit before it is called wrong.
func outputsMatch(body []byte, rq *request) bool {
	if i := bytes.Index(body, []byte(outputsKey)); i >= 0 && bytes.HasPrefix(body[i:], rq.want) {
		return true
	}
	var got struct {
		Outputs [][]float64 `json:"outputs"`
	}
	return json.Unmarshal(body, &got) == nil && equalBits(got.Outputs, rq.golden)
}

// respWriter is the in-process http.ResponseWriter a caller reuses across
// requests (there is no socket: handlers are invoked through ServeHTTP).
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

// httpCaller is one HTTP client: it builds, signs and sends a request and
// checks the answer. Everything it does is the load generator's own cost,
// which the traced run measures against a no-op handler.
type httpCaller struct {
	rw     respWriter
	nonce  []byte
	prefix int
	seq    uint64
}

func newHTTPCaller(id int) *httpCaller {
	c := &httpCaller{rw: respWriter{hdr: http.Header{}}}
	c.nonce = append(strconv.AppendInt(c.nonce, int64(id), 10), '-')
	c.prefix = len(c.nonce)
	return c
}

func (c *httpCaller) post(h http.Handler, rq *request) bool {
	req, err := http.NewRequest(http.MethodPost, "/infer", bytes.NewReader(rq.body))
	if err != nil {
		return false
	}
	c.seq++
	c.nonce = strconv.AppendUint(c.nonce[:c.prefix], c.seq, 10)
	tenant.SignRequest(req, latTenant, []byte(latKey), rq.body, time.Now(), string(c.nonce))
	clear(c.rw.hdr)
	c.rw.code = 0
	c.rw.buf.Reset()
	h.ServeHTTP(&c.rw, req)
	return c.rw.code == http.StatusOK && outputsMatch(c.rw.buf.Bytes(), rq)
}

// run is the end-to-end measurement of one serving workload.
func (w serveWorkload) run(cfg config) (*report, error) {
	in, err := w.makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var st *serveStack
	var setupS []float64
	for i := 0; i < cfg.setUps(); i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = w.setUp(in, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	res, err := measure(st.clients, cfg.window(), windowSegments, smokeOps, st.warmRate/float64(len(st.clients)))
	if err != nil {
		return nil, err
	}
	return cfg.endToEndReport(st.clients, res, setupS), nil
}
