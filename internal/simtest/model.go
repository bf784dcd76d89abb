package simtest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"expvar"
	"fmt"
	"math"
	"slices"
	"strconv"

	"mlvfpga/internal/cluster"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/rms"
)

// goldenKey memoizes inference outputs by (lease, input seed): the same
// lease has fixed weights, so the same input must produce bit-identical
// outputs for the rest of its life, across every migration and resize.
type goldenKey struct {
	lease int
	seed  int64
}

// stamp starts a trace line in s.line with its "%04d " step stamp.
func (s *Stack) stamp() []byte {
	b := s.line[:0]
	for w := 1000; w > 1 && s.step < w; w /= 10 {
		b = append(b, '0')
	}
	return append(strconv.AppendInt(b, int64(s.step), 10), ' ')
}

// emit folds a stamped line and its newline into the running trace hash,
// and keeps the line itself only when keepLines is set.
func (s *Stack) emit(b []byte) {
	s.line = append(b, '\n')
	s.traceHash = fnv64a(s.traceHash, s.line)
	if s.keepLines {
		s.lines = append(s.lines, string(b))
	}
}

// tracef traces a stamped line that fmt formats.
func (s *Stack) tracef(format string, args ...any) {
	s.emit(fmt.Appendf(s.stamp(), format, args...))
}

// traceInt traces prefix followed by n, as tracef(prefix+"%d", n) would.
func (s *Stack) traceInt(prefix string, n int) {
	s.emit(strconv.AppendInt(append(s.stamp(), prefix...), int64(n), 10))
}

// traceJSON traces label and v's json.Marshal encoding, encoded into the
// Stack's buffer (the encoder's trailing newline dropped).
func (s *Stack) traceJSON(label string, v any) {
	s.jbuf.Reset()
	s.enc.Encode(v) // on an error the JSON is empty, as json.Marshal's nil was
	b := append(append(s.stamp(), label...), ' ')
	s.emit(append(b, bytes.TrimSuffix(s.jbuf.Bytes(), []byte{'\n'})...))
}

func (s *Stack) fail(invariant, format string, args ...any) {
	if s.violation == nil {
		s.violation = &Violation{Step: s.step, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	}
}

// tenantAtLeaseCap answers whether the model says the tenant has spent its
// MaxLeases quota — the oracle the deploy path is checked against.
func (s *Stack) tenantAtLeaseCap(who string) bool {
	if who == "" || s.reg == nil {
		return false
	}
	t, ok := s.reg.Lookup(who)
	if !ok || t.Quotas.MaxLeases <= 0 {
		return false
	}
	n := 0
	for _, id := range s.live {
		if s.leaseTenant[id] == who {
			n++
		}
	}
	return n >= t.Quotas.MaxLeases
}

// beatAll beats every device not currently killed, in one registry pass,
// tracing how many when trace is set; false after recording a violation.
func (s *Stack) beatAll(trace bool) bool {
	beat, err := s.cp.Registry().HeartbeatEach(s.devices, s.killed)
	if err != nil {
		s.fail("heartbeat-error", "%v", err)
	} else if trace {
		s.traceInt("heartbeat n=", beat)
	}
	return err == nil
}

// tick runs one control-plane round and folds its report into the counter
// model; label names the trace line ("tick", or "settle" when quiescing).
func (s *Stack) tick(label string) {
	s.rep = s.cp.Tick()
	s.accountTick(&s.rep)
	s.traceJSON(label, &s.rep)
}

// accountTick folds a tick report into the expected-counter model: each
// event is one migration, landed unless it carries an error (no resize of
// a live lease on an open plane fails).
func (s *Stack) accountTick(rep *cluster.TickReport) {
	s.expHbMisses += int64(len(rep.Transitions))
	for _, ev := range rep.Events {
		if ev.Err == "" {
			s.expMigrations++
		} else {
			s.expMigFailures++
			if s.settling && ev.Kind == "evacuate" {
				s.excused[ev.Lease] = true
			}
		}
	}
}

// serveOn serves one explicit concurrent batch on a lease, optionally
// disturbed mid-flight by mid (the tests' preemption and transplant
// events), then joins it and audits the outputs against the golden memo.
func (s *Stack) serveOn(id int, who string, seeds []int64, kind string, mid func(id int)) {
	n := len(seeds)
	spec, ok := s.leaseSpec[id]
	if !ok {
		s.fail("lease-conservation", "serve on lease %d the model never deployed", id)
		return
	}
	s.reqs = slices.Grow(s.reqs[:0], n)[:n]
	for j := range s.reqs {
		s.inputsFor(&s.reqs[j], spec, id, seeds[j])
		if j < n-1 || mid != nil {
			s.wg.Add(1)
			go func() { defer s.wg.Done(); s.reqs[j].infer(s.dp, who, id) }()
		} else {
			s.reqs[j].infer(s.dp, who, id) // without a mid action, the last runs here
		}
	}
	if mid != nil {
		mid(id)
	}
	s.wg.Wait()
	if who != "" {
		// InferAs counts every attempt before shedding or serving.
		s.expTenantReq[who] += int64(n)
	}
	if s.violation != nil {
		return // mid already failed; the joined requests are accounted above
	}
	s.outs = s.outs[:0]
	for j, r := range s.reqs {
		if r.err != nil {
			s.fail("infer-served", "lease %d seed %d tenant %s: %v", id, seeds[j], who, r.err)
			return
		}
		hash := hashOutputs(r.res.Outputs)
		s.outs = append(s.outs, hash)
		key := goldenKey{lease: id, seed: seeds[j]}
		if prev, ok := s.golden[key]; ok {
			if prev != hash {
				s.fail("golden-equivalence",
					"lease %d seed %d: output hash %016x, previously %016x", id, seeds[j], hash, prev)
				return
			}
		} else {
			s.golden[key] = hash
		}
	}
	if who != "" {
		s.expTenantServed[who] += int64(n)
	}
	s.expInfers += int64(n)
	s.expInferEvents++
	// tracef("%s lease=%d tenant=%s n=%d seeds=%v out=%016x", …), unboxed.
	b := append(append(s.stamp(), kind...), " lease="...)
	b = append(append(strconv.AppendInt(b, int64(id), 10), " tenant="...), who...)
	b = append(strconv.AppendInt(append(b, " n="...), int64(n), 10), " seeds=["...)
	for j, seed := range seeds {
		if j > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, seed, 10)
	}
	b = append(b, "] out=["...)
	var w [8]byte
	for j, h := range s.outs {
		if j > 0 {
			b = append(b, ' ')
		}
		b = hex.AppendEncode(b, binary.BigEndian.AppendUint64(w[:0], h))
	}
	s.emit(append(b, ']'))
}

// deploy is deployAs plus the deploy event's trace line.
func (s *Stack) deploy(spec kernels.LayerSpec, who string, of int) (*rms.Lease, bool) {
	l, ok := s.deployAs(spec, who, of)
	if ok && l == nil {
		s.tracef("deploy shed tenant=%s", who)
	} else if ok {
		s.tracef("deploy lease=%d depth=%d tenant=%s", l.ID, l.Depth, who)
	}
	return l, ok
}

// markSpec records a deploy attempt for the spec's compile plan and
// reports whether its artifact was already ensured — i.e. whether the
// deploy must come back warm. Undeployable specs resolve to no plan and
// trigger no compile.
func (s *Stack) markSpec(spec kernels.LayerSpec) bool {
	key, err := s.comp.PlanKey(spec)
	if err != nil {
		return false
	}
	seen := s.keySeen[key]
	s.keySeen[key] = true
	return seen
}

// deployAs runs one attributed deploy (replicating lease of, if not 0) and
// audits the admission decision against the quota model. Returns (lease,
// true) on admission, (nil, true) on a correctly-shed attempt (quota or
// capacity), and (nil, false) after recording a violation.
func (s *Stack) deployAs(spec kernels.LayerSpec, who string, of int) (*rms.Lease, bool) {
	atCap := s.tenantAtLeaseCap(who)
	if who != "" {
		s.expTenantReq[who]++
	}
	// The compile runs before admission, so even a deploy that will be shed
	// on quota or capacity leaves its artifact behind: mark the spec's plan
	// seen before the attempt, and expect a warm lease exactly when its
	// artifact was already ensured.
	wantWarm := s.markSpec(spec)
	l, err := s.svc.DeployWith(spec, rms.PlaceOptions{Tenant: who, Replicates: of})
	if errors.Is(err, rms.ErrQuotaExceeded) {
		s.expTenantRej[who]++
		if !atCap {
			s.fail("quota-conservation", "tenant %s shed below its lease quota: %v", who, err)
			return nil, false
		}
		return nil, true
	}
	if errors.Is(err, rms.ErrNoCapacity) {
		return nil, true
	}
	if err != nil {
		s.fail("deploy-error", "%v", err)
		return nil, false
	}
	if atCap {
		s.fail("quota-conservation", "tenant %s admitted past MaxLeases as lease %d", who, l.ID)
		return nil, false
	}
	if wantWarm != l.WarmDeploy {
		s.fail("warm-deploy", "lease %d warm=%v, want %v (artifact store had %d plans)",
			l.ID, l.WarmDeploy, wantWarm, len(s.keySeen))
		return nil, false
	}
	if who != "" {
		s.leaseTenant[l.ID] = who
	}
	s.leaseSpec[l.ID] = spec
	s.live = append(s.live, l.ID)
	return l, true
}

// kill silences a device's heartbeats until revive; the registry notices
// after its suspect and dead windows.
func (s *Stack) kill(d int) {
	s.killed[d] = true
	s.traceInt("kill dev=", d)
}

// revive brings a killed device back and beats it once immediately.
func (s *Stack) revive(d int) bool {
	s.killed[d] = false
	if err := s.cp.Heartbeat(d); err != nil {
		s.fail("heartbeat-error", "device %d: %v", d, err)
		return false
	}
	s.traceInt("revive dev=", d)
	return true
}

func (s *Stack) drain(d int) bool {
	if err := s.cp.Drain(d); err != nil {
		s.fail("drain-error", "device %d: %v", d, err)
		return false
	}
	s.traceInt("drain dev=", d)
	return true
}

func (s *Stack) undrain(d int) bool {
	if err := s.cp.Undrain(d); err != nil {
		s.fail("undrain-error", "device %d: %v", d, err)
		return false
	}
	s.traceInt("undrain dev=", d)
	return true
}

// settle is one post-schedule quiesce round: every surviving device
// beats, then the control plane ticks, so pending evacuations and
// backoffs resolve before the stranded check.
func (s *Stack) settle() {
	if s.violation != nil {
		return
	}
	s.settling = true
	if !s.beatAll(false) {
		return
	}
	s.tick("settle")
	s.checkInvariants()
}

// checkStranded runs once after the settle rounds: no lease may still
// hold blocks on a dead or draining device, unless its evacuation
// verifiably failed for lack of capacity during settle (the control
// plane's correct answer then is to keep the lease and keep retrying).
func (s *Stack) checkStranded() {
	reg := s.cp.Registry()
	for _, l := range s.svc.ReadLeases(&s.leases) {
		if s.excused[l.ID] {
			continue
		}
		for _, pl := range l.Placements {
			if reg.Evacuate(pl.FPGA) {
				st, _ := reg.State(pl.FPGA)
				s.fail("stranded-placement",
					"lease %d still holds %d blocks on %s device %d after settle", l.ID, pl.Blocks, st, pl.FPGA)
				return
			}
		}
	}
}

// checkInvariants audits the stack against the model after an event and
// reports whether it is still green. First breach wins: once one is
// recorded nothing is audited again.
func (s *Stack) checkInvariants() bool {
	if s.violation != nil {
		return false
	}
	s.auditInvariants()
	return s.violation == nil
}

// auditInvariants runs every family in InvariantFamilies order, stopping
// at the first breach.
func (s *Stack) auditInvariants() {
	leases := s.svc.ReadLeases(&s.leases)

	// No lost or duplicated leases: the service's live set must equal the
	// model's, exactly. Both ascend: ids are handed out in order, and the
	// model deletes in place.
	if len(leases) != len(s.live) {
		s.fail("lease-conservation", "service has %d leases, model has %d", len(leases), len(s.live))
		return
	}
	for i, l := range leases {
		if l.ID != s.live[i] {
			s.fail("lease-conservation", "service holds lease %d where the model holds %d", l.ID, s.live[i])
			return
		}
	}

	// Exactly one placement per piece, no device used twice by one lease,
	// and every depth on the layer's feasible ladder.
	for _, l := range leases {
		if len(l.Placements) != l.Depth {
			s.fail("placement-shape", "lease %d: %d placements at depth %d", l.ID, len(l.Placements), l.Depth)
			return
		}
		for i, pl := range l.Placements {
			if slices.ContainsFunc(l.Placements[:i], func(p rms.Placement) bool { return p.FPGA == pl.FPGA }) {
				s.fail("duplicate-device", "lease %d holds device %d twice", l.ID, pl.FPGA)
				return
			}
		}
		ladder, err := s.svc.FeasibleDepths(l.Spec)
		if err != nil {
			s.fail("feasible-depth", "FeasibleDepths(%v): %v", l.Spec, err)
			return
		}
		if !slices.Contains(ladder, l.Depth) {
			s.fail("feasible-depth", "lease %d at depth %d, ladder is %v", l.ID, l.Depth, ladder)
			return
		}
	}
	// No stranded or double-freed blocks: the service audits its own
	// placements against the controller's occupancy.
	if err := s.svc.CheckInvariants(); err != nil {
		s.fail("placement-conservation", "%v", err)
		return
	}

	// One reading of every counter per audit; each family below checks its
	// deltas since the Stack's birth against the event model.
	s.vals.Read()
	d := s.vals.Sub(s.base)
	exact := func(invariant string, v *expvar.Int, want int64) bool {
		got := d.Int(v)
		if got != want {
			s.fail(invariant, "%s moved %d, events account for %d", metrics.Name(v), got, want)
		}
		return got == want
	}

	// Quota conservation: the service's per-tenant ownership and usage
	// must match the model's lease-owner map exactly, and no tenant may
	// ever hold more than any configured quota grants.
	if s.reg != nil {
		clear(s.owned) // reused per audit: a stale count breaks quota-conservation
		for _, l := range leases {
			if want := s.leaseTenant[l.ID]; l.Tenant != want {
				s.fail("quota-conservation",
					"lease %d owned by %q, model says %q", l.ID, l.Tenant, want)
				return
			}
			if l.Tenant != "" {
				s.owned[l.Tenant]++
			}
		}
		for _, t := range s.tenants {
			lu, du, bu := s.svc.TenantUsage(t.ID)
			if lu != s.owned[t.ID] {
				s.fail("quota-conservation",
					"tenant %s: service reports %d leases, model owns %d", t.ID, lu, s.owned[t.ID])
				return
			}
			if q := t.Quotas.MaxLeases; q > 0 && lu > q {
				s.fail("quota-conservation", "tenant %s holds %d leases over quota %d", t.ID, lu, q)
				return
			}
			if q := t.Quotas.MaxDevices; q > 0 && du > q {
				s.fail("quota-conservation", "tenant %s holds %d devices over quota %d", t.ID, du, q)
				return
			}
			if q := t.Quotas.MaxBlocks; q > 0 && bu > q {
				s.fail("quota-conservation", "tenant %s holds %d blocks over quota %d", t.ID, bu, q)
				return
			}
		}

		// Per-tenant counter accounting: every tenant-labelled expvar
		// delta must equal what the attributed events predict, the fair
		// queue must drain to zero depth between events, and nothing in
		// the sim path may trip the auth counters (no HTTP runs here).
		for _, t := range s.tenants {
			id := t.ID
			for _, c := range []struct {
				m    *expvar.Map
				want int64
			}{
				{metrics.TenantRequests, s.expTenantReq[id]},
				{metrics.TenantServed, s.expTenantServed[id]},
				{metrics.TenantRejections, s.expTenantRej[id]},
				{metrics.TenantQueueDepth, 0},
				{metrics.TenantAuthFailures, 0},
			} {
				if got := d.Tenant(c.m, id); got != c.want {
					s.fail("tenant-accounting",
						"tenant %s: %s moved %d, events account for %d", id, metrics.Name(c.m), got, c.want)
					return
				}
			}
		}
	}

	// Artifact-cache conservation: the compile runs once per distinct
	// compile plan ever attempted (the singleflight memo absorbs every
	// repeat, including deploys later shed on quota or capacity), and
	// nothing may be dropped as corrupt.
	if st, want := s.store.Stats(), int64(len(s.keySeen)); st.Computes != want || st.CorruptDropped != 0 {
		s.fail("artifact-cache",
			"computes=%d corrupt=%d, want exactly %d compiles and 0 corrupt drops", st.Computes, st.CorruptDropped, want)
		return
	}

	// Snapshot conservation: every event joins its in-flight work before
	// returning, so between events no stream is mid-checkpoint — every
	// capture must have found its restore (explicit preemption, automatic
	// preemption and transplant alike; a capture with no restore is a
	// dropped stream restarting from scratch), preemption evictions must
	// pair one-to-one with preemption restores, and defrag moves must
	// match the event model exactly. Drain checkpoints are deliberately
	// outside this family: they are terminal by design (no restore ever
	// follows), so they live in a separate counter. Checked before the
	// generic counter families because a dropped checkpoint also skews
	// batch and admission accounting downstream — the root cause should
	// name the violation.
	if c, rs := d.Int(metrics.SnapshotCaptures), d.Int(metrics.SnapshotRestores); c != rs {
		s.fail("snapshot-conservation",
			"%s moved %d, %s %d: a checkpoint was captured and never restored",
			metrics.Name(metrics.SnapshotCaptures), c, metrics.Name(metrics.SnapshotRestores), rs)
		return
	}
	if ev, rs := d.Int(metrics.PreemptEvictions), d.Int(metrics.PreemptRestores); ev != rs {
		s.fail("snapshot-conservation", "%s moved %d, %s %d",
			metrics.Name(metrics.PreemptEvictions), ev, metrics.Name(metrics.PreemptRestores), rs)
		return
	}
	if !exact("snapshot-conservation", metrics.DefragMoves, s.expDefragMoves) {
		return
	}

	// Counter conservation: every expvar delta must equal what the event
	// model predicts (batches are bounded, not pinned: riders per batch
	// depend on goroutine interleaving, which the results never do).
	for _, c := range []struct {
		v    *expvar.Int
		want int64
	}{
		{metrics.LeasesActive, int64(len(s.live))},
		{metrics.InfersServed, s.expInfers},
		{metrics.Migrations, s.expMigrations},
		{metrics.MigrationFailures, s.expMigFailures},
		{metrics.HeartbeatMisses, s.expHbMisses},
		{metrics.DevicesCondemned, s.expCondemned},
	} {
		if !exact("counter-conservation", c.v, c.want) {
			return
		}
	}
	if bf := d.Int(metrics.BatchesFlushed); bf < s.expInferEvents || bf > s.expInfers {
		s.fail("batch-conservation", "%s moved %d, outside [%d, %d]",
			metrics.Name(metrics.BatchesFlushed), bf, s.expInferEvents, s.expInfers)
		return
	}

	// Slot conservation in the continuous plane: every infer event joins
	// its requests before returning and retirement settles all accounting
	// before answering, so between events no stream is resident — the
	// active-slot gauge must be exactly back at its baseline (a residue is
	// a leaked slot: admitted capacity that never came back), and each
	// served request accounts for exactly one slot admission.
	if got := d.Int(metrics.SlotsActive); got != 0 {
		s.fail("slot-conservation", "%s residue %d with no request in flight",
			metrics.Name(metrics.SlotsActive), got)
		return
	}
	if !exact("slot-conservation", metrics.Admissions, s.expInfers) {
		return
	}
	if occ, rounds := d.Int(metrics.SlotRoundOccupancy), d.Int(metrics.SlotRounds); occ < rounds {
		s.fail("slot-conservation", "%s %d below %s %d: a round ran with an empty cohort",
			metrics.Name(metrics.SlotRoundOccupancy), occ, metrics.Name(metrics.SlotRounds), rounds)
		return
	}
}

// request is one of serveOn's concurrent requests, kept on the Stack from
// serve to serve: its input tensor and what InferAs answered.
type request struct {
	in   [][]float64
	back []float64
	res  rms.InferResult
	err  error
}

func (r *request) infer(dp *rms.DataPlane, who string, id int) {
	r.res, r.err = dp.InferAs(who, id, r.in)
}

// inputsFor derives a request's input tensor from (lease, seed) alone, so
// replaying the pair replays the exact bits. Seed resets the Stack's one
// generator exactly as NewSource would build a fresh one.
func (s *Stack) inputsFor(r *request, spec kernels.LayerSpec, leaseID int, seed int64) {
	s.inputRng.Seed(seed<<20 ^ int64(leaseID))
	h := spec.Hidden
	r.back = slices.Grow(r.back[:0], spec.TimeSteps*h)[:spec.TimeSteps*h]
	r.in = slices.Grow(r.in[:0], spec.TimeSteps)[:spec.TimeSteps]
	for t := range r.in {
		r.in[t] = r.back[t*h : (t+1)*h]
		for i := range r.in[t] {
			r.in[t][i] = s.inputRng.NormFloat64()
		}
	}
}

// hashOutputs folds an output tensor's exact bits, so equal hashes mean
// bit-identical results.
func hashOutputs(outs [][]float64) uint64 {
	h := uint64(fnvOffset)
	var b [8]byte
	for _, row := range outs {
		for _, v := range row {
			h = fnv64a(h, binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
		}
	}
	return h
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnv64a folds b into the FNV-64a hash h (hash/fnv's New64a, without an
// interface for b to escape through).
func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
