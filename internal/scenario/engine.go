package scenario

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mlvfpga/internal/simtest"
	"mlvfpga/internal/wdsl"
)

// minService floors the queue model's service time, so a lease whose
// modelled latency rounds to zero still accumulates backlog.
const minService = 100 * time.Microsecond

// lease is one deployed serving endpoint in the engine's model.
type leaseInfo struct {
	id int
	// service is the queue model's per-request service time (the lease's
	// modelled inference latency at deploy time).
	service time.Duration
}

// arrival is one offered request, priced by the queue plane and
// optionally executed on the stack. Its tenant and class are its traffic
// block's.
type arrival struct {
	at      time.Duration
	block   int32 // traffic block index
	seq     int32 // sequence within the block
	lease   int32 // index into leases
	sampled bool
}

// Run executes one compiled scenario and returns its SLO report. The
// report is a pure function of (spec, name): same spec and seed reproduce
// the same trace hash and the same report bytes.
func Run(spec *wdsl.Spec, name string) (*Report, error) {
	ir := spec.Scenario
	if ir == nil {
		return nil, fmt.Errorf("scenario: spec %q has no scenario block", name)
	}
	if len(ir.Deploys) == 0 {
		return nil, fmt.Errorf("scenario: spec %q deploys nothing", name)
	}

	o := simtest.DefaultOptions(ir.Seed)
	o.Cluster = ir.Cluster
	o.Tenants = spec.Tenants
	o.Infer.Seed = ir.Seed
	classOf := map[string]string{}
	for _, t := range spec.Tenants {
		classOf[t.ID] = t.Class.String()
	}
	blockClass := make([]string, len(ir.Traffic))
	for bi, tr := range ir.Traffic {
		blockClass[bi] = cmp.Or(classOf[tr.Tenant], "latency") // a tenant without a class, or none
	}

	// The arrivals are drawn first, so a lease the sample will serve
	// starts building its engine beside the DES once it is placed.
	arrivals, served := genArrivals(spec)

	stack, err := simtest.NewStack(o)
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	var builds sync.WaitGroup
	defer builds.Wait() // before Close: no build outlives the Run
	eng := stack.Engine()

	// Deploy phase (virtual t=0): every replica of every layer of every
	// deployed model becomes a lease, replicas 1..n-1 replicating replica 0
	// (one weight set). A shed deploy is a spec error (the described fleet
	// cannot host the described models), not a violation.
	leases := make([]leaseInfo, 0, len(served))
	for _, d := range ir.Deploys {
		m := spec.ByName[d.Model]
		first := make([]int, len(m.Layers)) // replica 0's lease of each layer
		for rep := 0; rep < d.Replicas; rep++ {
			for li, layer := range m.Layers {
				l, ok := stack.DeployReplica(layer.Rnn, d.Tenant, first[li])
				if !ok {
					return nil, fmt.Errorf("scenario: deploy %q replica %d layer %d: invariant violation: %v",
						d.Model, rep, li, stack.Violation())
				}
				if l == nil {
					return nil, fmt.Errorf("scenario: deploy %q replica %d layer %d shed: fleet cannot host the described models",
						d.Model, rep, li)
				}
				first[li] = cmp.Or(first[li], l.ID)
				if served[len(leases)] {
					stack.Prebuild(l.ID, &builds)
				}
				svc, _ := stack.LeaseLatency(l.ID)
				leases = append(leases, leaseInfo{id: l.ID, service: max(svc, minService)})
			}
		}
	}

	// Storm victims: deterministic, disjoint across storms, never
	// reducing the beating fleet below two devices.
	devices := stack.Devices()
	rng := rand.New(rand.NewSource(ir.Seed ^ 0x5ca1ab1e))
	victims, err := stormVictims(ir.Storms, devices, rng)
	if err != nil {
		return nil, err
	}

	// --- Lay the timeline onto the DES engine: one func per recurring kind. ---
	heartbeat := func(time.Duration) { stack.HeartbeatAll() }
	tick := func(time.Duration) { stack.Tick() }
	settle := func(time.Duration) { stack.Settle() }
	for t := ir.Heartbeat; t <= ir.Duration; t += ir.Heartbeat {
		eng.At(t, heartbeat)
	}
	for t := ir.Tick; t <= ir.Duration; t += ir.Tick {
		eng.At(t, tick)
	}
	for si, st := range ir.Storms {
		vs := victims[si]
		kind := st.Kind
		eng.At(st.At, func(time.Duration) {
			for _, d := range vs {
				if kind == "kill" {
					stack.Kill(d)
				} else {
					stack.Drain(d)
				}
			}
		})
		if st.For > 0 {
			eng.At(min(st.At+st.For, ir.Duration), func(time.Duration) {
				for _, d := range vs {
					if kind == "kill" {
						stack.Revive(d)
					} else {
						stack.Undrain(d)
					}
				}
			})
		}
	}

	// The queue plane prices every arrival now (it is virtual-time math,
	// not stack work); sampled, un-shed arrivals additionally execute on
	// the stack at their arrival instant, in order, through one func value
	// (the engine runs equal instants in scheduling order).
	busyUntil := make([]time.Duration, len(leases))
	tenants := map[string]*rollup{}
	classes := map[string]*rollup{}
	for _, a := range arrivals { // counted first, to size the sojourn samples once
		getRollup(tenants, ir.Traffic[a.block].Tenant).requests++
		getRollup(classes, blockClass[a.block]).requests++
	}
	for _, m := range [...]map[string]*rollup{tenants, classes} {
		for _, r := range m {
			r.sojourns = make([]float64, 0, r.requests)
		}
	}
	var toServe []*arrival
	seed := []int64{0}
	serve := func(time.Duration) {
		a := toServe[0]
		toServe, seed[0] = toServe[1:], int64(a.seq%8)
		stack.Serve(leases[a.lease].id, ir.Traffic[a.block].Tenant, seed)
	}
	sampled := 0
	for i := range arrivals {
		a := &arrivals[i]
		li := leases[a.lease]
		tr := tenants[ir.Traffic[a.block].Tenant]
		cr := classes[blockClass[a.block]]
		wait := max(busyUntil[a.lease]-a.at, 0)
		if wait > time.Duration(ir.QueueCap)*li.service {
			tr.shed++
			cr.shed++
			continue
		}
		busyUntil[a.lease] = a.at + wait + li.service
		sojournMs := float64(wait+li.service) / float64(time.Millisecond)
		tr.served++
		cr.served++
		tr.sojourns = append(tr.sojourns, sojournMs)
		cr.sojourns = append(cr.sojourns, sojournMs)
		if a.sampled {
			sampled++
			toServe = append(toServe, a)
			eng.At(a.at, serve)
		}
	}

	// Settle rounds after the described duration (the sweep's count and
	// period): heartbeats + ticks that let evacuations and retry backoffs
	// quiesce before the stranded audit.
	for k := 0; k < o.SettleSteps; k++ {
		eng.At(ir.Duration+time.Duration(k+1)*o.SettlePeriod, settle)
	}

	eng.Run(0)
	stack.CheckStranded()

	// --- Assemble the report. ---
	rep := &Report{
		Spec:      name,
		Seed:      ir.Seed,
		Devices:   ir.DeviceCount,
		Duration:  ir.Duration.String(),
		Leases:    len(leases),
		Arrivals:  len(arrivals),
		Sampled:   sampled,
		TraceHash: fmt.Sprintf("%016x", stack.TraceHash()),
		Tenants:   map[string]*SLO{},
		Classes:   map[string]*SLO{},
		Counters:  stack.CounterDeltas(),
	}
	for name, r := range tenants {
		if name == "" {
			continue // tenantless runs roll up under Classes only
		}
		rep.Tenants[name] = r.slo()
	}
	for name, r := range classes {
		rep.Classes[name] = r.slo()
	}
	violatedFamily := ""
	if v := stack.Violation(); v != nil {
		rep.Violation = v.String()
		violatedFamily = v.Invariant
	}
	seen := false
	for _, fam := range simtest.InvariantFamilies() {
		verdict := Verdict{Invariant: fam, Status: "green"}
		if fam == violatedFamily {
			verdict.Status = "violated"
			verdict.Detail = rep.Violation
			seen = true
		}
		rep.Invariants = append(rep.Invariants, verdict)
	}
	if violatedFamily != "" && !seen {
		// Operation-error pseudo-families (deploy-error, ...) are not in
		// the fixed list; attach them so the verdicts stay consistent.
		rep.Invariants = append(rep.Invariants,
			Verdict{Invariant: violatedFamily, Status: "violated", Detail: rep.Violation})
	}
	rep.Valid = rep.Violation == ""
	return rep, nil
}

func getRollup(m map[string]*rollup, key string) *rollup {
	r := m[key]
	if r == nil {
		r = &rollup{}
		m[key] = r
	}
	return r
}

// stormVictims picks each storm's victim devices: deterministic under the
// seed, disjoint across storms, and never leaving fewer than two devices
// untouched by storms.
func stormVictims(storms []wdsl.StormIR, devices []int, rng *rand.Rand) ([][]int, error) {
	pool := append([]int(nil), devices...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	need := 0
	for _, s := range storms {
		need += s.Devices
	}
	if need > len(devices)-2 {
		return nil, fmt.Errorf("scenario: storms touch %d devices, fleet of %d must keep 2 untouched",
			need, len(devices))
	}
	out := make([][]int, len(storms))
	next := 0
	for i, s := range storms {
		vs := append([]int(nil), pool[next:next+s.Devices]...)
		sort.Ints(vs)
		out[i] = vs
		next += s.Devices
	}
	return out, nil
}

// genArrivals merges every traffic block's arrivals into one sequence
// ordered by (at, block, seq), which is unique per arrival, and marks each
// lease, indexed in deploy order, that a sampled arrival will serve. Each
// block draws a Poisson process at peak rate, in increasing time, from its
// own derived PRNG, so adding a block never perturbs another block's draw
// sequence; diurnal blocks thin it against the day curve
// λ(t) = rate·(trough + (1−trough)·½(1−cos 2πt/T)). The merge takes the
// earliest head, a tie going to the lower block.
func genArrivals(spec *wdsl.Spec) ([]arrival, []bool) {
	ir, leasesByModel, n := spec.Scenario, map[string][]int{}, 0
	for _, d := range ir.Deploys {
		for range d.Replicas * len(spec.ByName[d.Model].Layers) {
			leasesByModel[d.Model] = append(leasesByModel[d.Model], n)
			n++
		}
	}
	rngs, heads := make([]*rand.Rand, len(ir.Traffic)), make([]arrival, len(ir.Traffic))
	// next draws the arrival after prev in its block, at or past the
	// duration once the block is spent.
	next := func(prev arrival) arrival {
		tr, rng := &ir.Traffic[prev.block], rngs[prev.block]
		for t := prev.at; ; {
			t += time.Duration(rng.ExpFloat64() / tr.Rate * float64(time.Second))
			if t >= ir.Duration {
				return arrival{at: t}
			}
			if tr.Shape == "diurnal" {
				phase := 2 * math.Pi * float64(t) / float64(tr.Period)
				if rng.Float64() >= tr.Trough+(1-tr.Trough)*0.5*(1-math.Cos(phase)) {
					continue
				}
			}
			pool := leasesByModel[tr.Model]
			return arrival{at: t, block: prev.block, seq: prev.seq + 1,
				lease: int32(pool[rng.Intn(len(pool))]), sampled: rng.Float64() < ir.Sample}
		}
	}
	for bi := range heads {
		rngs[bi] = rand.New(rand.NewSource(ir.Seed ^ (int64(bi+1) * 0x9e3779b9)))
		heads[bi] = next(arrival{block: int32(bi), seq: -1})
	}
	peak := 0.0 // Σ rate × duration: the arrivals' count at every block's peak rate
	for _, tr := range ir.Traffic {
		peak += tr.Rate * ir.Duration.Seconds()
	}
	out := make([]arrival, 0, int(peak))
	served := make([]bool, n)
	for {
		bi := -1
		for b, h := range heads {
			if h.at < ir.Duration && (bi < 0 || h.at < heads[bi].at) {
				bi = b
			}
		}
		if bi < 0 {
			return out, served
		}
		a := heads[bi]
		out = append(out, a)
		served[a.lease] = served[a.lease] || a.sampled
		heads[bi] = next(a)
	}
}
