package scaleout

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/perf"
)

func TestSyncConfigValidate(t *testing.T) {
	if err := (Config{SendAddr: 1, RecvAddr: 1, ShardWords: 4}).Validate(); err == nil {
		t.Error("colliding addresses must fail")
	}
	if err := (Config{SendAddr: 1, RecvAddr: 2, ShardWords: 0}).Validate(); err == nil {
		t.Error("zero shard words must fail")
	}
}

// newTestGroup links n 64-word memories with shard length 2, trapping
// addresses 100 (send) and 101 (receive).
func newTestGroup(t *testing.T, n int) ([]*accel.Memory, []*SyncModule) {
	t.Helper()
	mems := make([]*accel.Memory, n)
	inners := make([]accel.DRAM, n)
	for i := range mems {
		mems[i] = accel.NewMemory(64)
		inners[i] = mems[i]
	}
	syncs, err := NewSyncGroup(inners, Config{SendAddr: 100, RecvAddr: 101, ShardWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mems, syncs
}

// groupSizes are the deployments the transform supports (accel.LengthMode).
var groupSizes = []int{2, 4}

// Device i sends [10i, 10i+1]; every device must gather the shards in
// device order — at n = 2 the index-register merge (device 0: own half
// first, device 1: peer half first) — and count one shard per peer.
func syncExchange(t *testing.T, n int) {
	const shard = 2
	_, syncs := newTestGroup(t, n)
	var want []float64
	for i, s := range syncs {
		own := []float64{float64(10 * i), float64(10*i + 1)}
		want = append(want, own...)
		words := make([]fp16.Num, len(own))
		fp16.FromSlice64Into(words, own)
		if err := s.WriteWords(100, words); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range syncs {
		got, err := readWords(s, 101, n*shard)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j].Float64() != want[j] {
				t.Errorf("device %d gathered[%d] = %v, want %v", i, j, got[j].Float64(), want[j])
			}
		}
		moved := int64(shard * (n - 1))
		if st := s.Stats(); st.Sends != 1 || st.Receives != 1 || st.WordsSent != moved || st.WordsReceived != moved {
			t.Errorf("device %d stats = %+v", i, st)
		}
	}
}

func TestSyncPairExchange(t *testing.T)   { syncExchange(t, 2) }
func TestSyncGroupAllGather(t *testing.T) { syncExchange(t, 4) }

func TestSyncPassThrough(t *testing.T) {
	for _, n := range groupSizes {
		mems, syncs := newTestGroup(t, n)
		s0 := syncs[0]
		vals := []fp16.Num{7}
		if err := s0.WriteWords(5, vals); err != nil {
			t.Fatal(err)
		}
		got, err := readWords(s0, 5, 1)
		if err != nil || got[0] != 7 {
			t.Errorf("n=%d: pass-through failed: %v %v", n, got, err)
		}
		// The trapped write must NOT have touched DRAM.
		if err := s0.WriteWords(100, []fp16.Num{9, 9}); err != nil {
			t.Fatal(err)
		}
		inner, _ := readWords(mems[0], 0, 64)
		for i, w := range inner {
			if i == 5 {
				continue
			}
			if w != 0 {
				t.Fatalf("n=%d: trapped write leaked into DRAM at %d", n, i)
			}
		}
	}
}

func TestSyncErrors(t *testing.T) {
	for _, n := range groupSizes {
		_, syncs := newTestGroup(t, n)
		s0 := syncs[0]
		if err := s0.WriteWords(100, make([]fp16.Num, 3)); err == nil {
			t.Errorf("n=%d: wrong send size must fail", n)
		}
		if _, err := readWords(s0, 101, 2*n-1); err == nil {
			t.Errorf("n=%d: wrong receive size must fail", n)
		}
		if _, err := readWords(s0, 101, 2*n); err == nil {
			t.Errorf("n=%d: receive before send must fail", n)
		}
	}
}

func TestSyncGroupErrors(t *testing.T) {
	if _, err := NewSyncGroup([]accel.DRAM{accel.NewMemory(8)}, Config{SendAddr: 1, RecvAddr: 2, ShardWords: 1}); err == nil {
		t.Error("single-device group must fail")
	}
	for _, n := range groupSizes {
		inners := make([]accel.DRAM, n)
		for i := range inners {
			inners[i] = accel.NewMemory(8)
		}
		if _, err := NewSyncGroup(inners, Config{SendAddr: 1, RecvAddr: 1, ShardWords: 1}); err == nil {
			t.Errorf("n=%d: bad config must fail", n)
		}
	}
}

// The functional heart of §2.3: n scaled-down accelerators connected by
// sync modules compute the same results as the float64 reference, for
// both cell kinds — the functional counterpart of the runtime's 2- and
// 4-piece deployments. Returns the outputs per step.
func runScaled(t *testing.T, kind kernels.RNNKind, hidden, steps, n int, reorder bool) [][]float64 {
	t.Helper()
	w := kernels.RandomWeights(kind, hidden, 99)
	sg, err := BuildScaledGroup(w, steps, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sg.Kernels {
		k.Cfg.MantissaBits = 9
	}
	if reorder {
		for d := range sg.Progs {
			sg.Progs[d] = ReorderForOverlap(sg.Progs[d],
				uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr))
		}
	}
	ms, syncs, err := sg.NewMachines()
	if err != nil {
		t.Fatal(err)
	}
	ref := kernels.NewReference(w)
	r := rand.New(rand.NewSource(3))
	inputs := make([][]float64, steps)
	for tt := range inputs {
		x := make([]float64, hidden)
		for i := range x {
			x[i] = r.NormFloat64() * 0.5
		}
		inputs[tt] = x
		if err := sg.SetInput(ms, tt, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sg.Run(ms); err != nil {
		t.Fatal(err)
	}
	outputs := make([][]float64, steps)
	for tt := 0; tt < steps; tt++ {
		want, err := ref.Step(inputs[tt])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sg.ReadOutput(ms, tt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.1 {
				t.Fatalf("%v n=%d reorder=%v step %d elem %d: got %v, want %v",
					kind, n, reorder, tt, i, got[i], want[i])
			}
		}
		outputs[tt] = got
	}
	// Every step moved exactly one shard to, and from, each peer (one
	// half-vector each way at n = 2).
	moved := int64(steps * (hidden / n) * (n - 1))
	for d, s := range syncs {
		st := s.Stats()
		if st.Sends != steps || st.Receives != steps || st.WordsSent != moved || st.WordsReceived != moved {
			t.Errorf("n=%d device %d sync stats = %+v, want %d sends/receives of %d words in all", n, d, st, steps, moved)
		}
	}
	return outputs
}

// The reordering tool only permutes under dependency constraints, so the
// reordered programs must produce bit-identical outputs, at every
// supported group size.
func runReordered(t *testing.T, kind kernels.RNNKind, hidden, steps int) {
	t.Helper()
	for _, n := range groupSizes {
		plain := runScaled(t, kind, hidden, steps, n, false)
		reordered := runScaled(t, kind, hidden, steps, n, true)
		for tt := range plain {
			for i := range plain[tt] {
				if reordered[tt][i] != plain[tt][i] {
					t.Fatalf("%v n=%d step %d elem %d: reordered %v, program order %v",
						kind, n, tt, i, reordered[tt][i], plain[tt][i])
				}
			}
		}
	}
}

func TestScaledLSTMMatchesReference(t *testing.T) { runScaled(t, kernels.LSTM, 32, 4, 2, false) }
func TestScaledGRUMatchesReference(t *testing.T)  { runScaled(t, kernels.GRU, 32, 4, 2, false) }
func TestScaledGroup4LSTM(t *testing.T)           { runScaled(t, kernels.LSTM, 32, 4, 4, false) }
func TestScaledGroup4GRU(t *testing.T)            { runScaled(t, kernels.GRU, 32, 4, 4, false) }
func TestScaledLSTMReordered(t *testing.T)        { runReordered(t, kernels.LSTM, 32, 5) }
func TestScaledGRUReordered(t *testing.T)         { runReordered(t, kernels.GRU, 32, 5) }
func TestScaledLongerSequence(t *testing.T)       { runReordered(t, kernels.LSTM, 24, 10) }

// At n = 2 the group is the Fig. 11 pair: one half-vector each way per
// step (the word counts runScaled checks), on a sequence length the other
// rows do not use.
func TestScaledGroup2MatchesPairSemantics(t *testing.T) {
	runScaled(t, kernels.LSTM, 32, 3, 2, false)
}

func TestBuildScaledPairErrors(t *testing.T) {
	w := kernels.RandomWeights(kernels.GRU, 32, 1)
	if _, err := BuildScaledGroup(w, 0, 1, 2); err == nil {
		t.Error("zero steps must fail")
	}
	wOdd := kernels.RandomWeights(kernels.GRU, 32, 1)
	wOdd.Hidden = 33
	if _, err := BuildScaledGroup(wOdd, 1, 1, 2); err == nil {
		t.Error("odd hidden must fail")
	}
}

func TestBuildScaledGroupErrors(t *testing.T) {
	w := kernels.RandomWeights(kernels.GRU, 32, 1)
	if _, err := BuildScaledGroup(w, 1, 1, 3); err == nil {
		t.Error("n=3 must fail (no length mode)")
	}
	if _, err := BuildScaledGroup(w, 0, 1, 4); err == nil {
		t.Error("zero steps must fail")
	}
	wOdd := kernels.RandomWeights(kernels.GRU, 32, 1)
	wOdd.Hidden = 30
	if _, err := BuildScaledGroup(wOdd, 1, 1, 4); err == nil {
		t.Error("hidden not divisible by 4 must fail")
	}
}

// The reordering tool must actually move the receive later: after
// reordering, the number of instructions between a receive and the next
// dependent use must grow or stay equal, and the program must be a
// permutation with identical multiset of instructions.
func TestReorderMovesReceiveLater(t *testing.T) {
	w := kernels.RandomWeights(kernels.LSTM, 32, 1)
	sg, err := BuildScaledGroup(w, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	send, recv := uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr)
	orig := sg.Progs[0]
	re := ReorderForOverlap(orig, send, recv)
	if len(re) != len(orig) {
		t.Fatalf("length changed: %d vs %d", len(re), len(orig))
	}
	count := func(p isa.Program) map[isa.Instr]int {
		m := map[isa.Instr]int{}
		for _, i := range p {
			m[i]++
		}
		return m
	}
	co, cr := count(orig), count(re)
	for k, v := range co {
		if cr[k] != v {
			t.Fatalf("not a permutation: %v", k)
		}
	}
	recvPos := func(p isa.Program) []int {
		var out []int
		for i, ins := range p {
			if ins.Op == isa.OpVRead && ins.Imm == recv {
				out = append(out, i)
			}
		}
		return out
	}
	po, pr := recvPos(orig), recvPos(re)
	if len(po) != len(pr) || len(po) == 0 {
		t.Fatal("receive count changed")
	}
	moved := false
	for i := range po {
		if pr[i] < po[i] {
			t.Errorf("receive %d moved earlier: %d -> %d", i, po[i], pr[i])
		}
		if pr[i] > po[i] {
			moved = true
		}
	}
	if !moved {
		t.Error("no receive moved later; overlap gained nothing")
	}
}

// Fig. 11 shape: the overlap technique fully hides the swept added latency
// for the LSTM, hides it up to a mid-sweep crossover for the small GRU,
// and cannot hide it for the large GRU.
func TestFig11Shape(t *testing.T) {
	p := perf.DefaultParams()
	base := netmodel.DefaultRingLink()
	budget := func(kind kernels.RNNKind, h int) time.Duration {
		spec := kernels.LayerSpec{Kind: kind, Hidden: h, TimeSteps: 1}
		b, err := HiddenLatencyBudget(spec, "XCVU37P", p, base)
		if err != nil {
			t.Fatalf("%v h=%d: %v", kind, h, err)
		}
		return b
	}
	lstm := budget(kernels.LSTM, 1024)
	gruSmall := budget(kernels.GRU, 1024)
	gruLarge := budget(kernels.GRU, 2560)
	if lstm < time.Microsecond {
		t.Errorf("LSTM budget = %v, must cover the full 1us sweep", lstm)
	}
	if gruSmall < 300*time.Nanosecond || gruSmall > 900*time.Nanosecond {
		t.Errorf("small GRU budget = %v, want a mid-sweep crossover (~0.6us)", gruSmall)
	}
	if gruLarge > 300*time.Nanosecond {
		t.Errorf("large GRU budget = %v, must be (near) zero", gruLarge)
	}
	if !(gruLarge < gruSmall && gruSmall < lstm) {
		t.Errorf("budget ordering wrong: %v < %v < %v", gruLarge, gruSmall, lstm)
	}
}

func TestTwoFPGAStepMonotoneInAddedLatency(t *testing.T) {
	p := perf.DefaultParams()
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 1}
	for _, devices := range [][]string{{vu, vu}, {vu, vu, vu, vu}} {
		prev := time.Duration(0)
		for _, added := range []time.Duration{0, 200, 400, 600, 800, 1000} {
			link := netmodel.DefaultRingLink()
			link.AddedLatency = added * time.Nanosecond
			step, _, _, err := NFPGAStep(spec, devices, p, TwoFPGAOptions{Overlap: true, Link: link})
			if err != nil {
				t.Fatal(err)
			}
			if step < prev {
				t.Errorf("n=%d: step time decreased with added latency at %v", len(devices), added)
			}
			prev = step
		}
	}
}

func TestOverlapNeverWorse(t *testing.T) {
	p := perf.DefaultParams()
	for _, spec := range []kernels.LayerSpec{
		{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 10},
		{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 10},
		{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 10},
	} {
		link := netmodel.DefaultRingLink()
		link.AddedLatency = 600 * time.Nanosecond
		with, err := NFPGALatency(spec, []string{vu, vu}, p, TwoFPGAOptions{Overlap: true, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		without, err := NFPGALatency(spec, []string{vu, vu}, p, TwoFPGAOptions{Overlap: false, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		if with > without {
			t.Errorf("%v: overlap (%v) worse than naive (%v)", spec, with, without)
		}
	}
}

func TestTwoFPGAErrors(t *testing.T) {
	p := perf.DefaultParams()
	spec := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 1}
	if _, _, _, err := NFPGAStep(spec, []string{vu, "bogus"}, p, TwoFPGAOptions{Link: netmodel.DefaultRingLink()}); err == nil {
		t.Error("unknown device must fail")
	}
	bad := netmodel.Link{}
	if _, _, _, err := NFPGAStep(spec, []string{vu, vu}, p, TwoFPGAOptions{Link: bad}); err == nil {
		t.Error("zero-bandwidth link must fail")
	}
	if _, err := perf.MinTilesScaled(spec, "XCVU37P", 0); err == nil {
		t.Error("zero devices must fail")
	}
}

// Scaled programs must pass the static validator, with the sync module's
// trapped addresses declared.
func TestScaledProgramsValidate(t *testing.T) {
	for _, kind := range []kernels.RNNKind{kernels.LSTM, kernels.GRU} {
		for _, n := range groupSizes {
			w := kernels.RandomWeights(kind, 64, 3)
			sg, err := BuildScaledGroup(w, 4, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			for d := range sg.Progs {
				cfg := sg.Kernels[d].Cfg
				spec := isa.MachineSpec{
					VRegs:         cfg.VRegs,
					MRegs:         cfg.MRegs,
					DRAMWords:     cfg.DRAMWords,
					InstrBufBytes: cfg.InstrBufBytes,
					TrappedAddrs:  []uint32{uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr)},
				}
				prog := ReorderForOverlap(sg.Progs[d], uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr))
				if issues := isa.Validate(prog, spec); len(issues) != 0 {
					t.Errorf("%v n=%d device %d: %d issues; first: %v", kind, n, d, len(issues), issues[0])
				}
			}
		}
	}
}

// The reordered schedule must realize the timing model's overlap window:
// at least the modelled number of x-dependent matrix products execute
// between the send and the blocking receive of every steady-state step.
func TestMeasuredOverlapMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		kind      kernels.RNNKind
		modelMVMs int // overlapGates assumed by the latency model
	}{
		{kernels.LSTM, 4},
		{kernels.GRU, 2},
	} {
		w := kernels.RandomWeights(tc.kind, 32, 1)
		sg, err := BuildScaledGroup(w, 4, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		send, recv := uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr)
		re := ReorderForOverlap(sg.Progs[0], send, recv)
		overlaps := OverlapMVMs(re, send, recv)
		if len(overlaps) != sg.Spec.TimeSteps {
			t.Fatalf("%v: %d overlap windows for %d steps", tc.kind, len(overlaps), sg.Spec.TimeSteps)
		}
		// The last step has no successor to overlap with; every earlier
		// step must cover at least the model's window.
		for i, n := range overlaps[:len(overlaps)-1] {
			if n < tc.modelMVMs {
				t.Errorf("%v step %d: %d MVMs overlap the transfer, model assumes >= %d",
					tc.kind, i, n, tc.modelMVMs)
			}
		}
		// Before reordering there is nothing between send and receive.
		for _, n := range OverlapMVMs(sg.Progs[0], send, recv) {
			if n != 0 {
				t.Errorf("%v: unreordered program already overlaps %d MVMs", tc.kind, n)
			}
		}
	}
}

// groupVsSingle runs one layer twice on the same weights and inputs — on
// one device (kernels.Build) and on an n-device group — and reports the
// first output word that differs, or a device whose sync module did not see
// exactly one send and one receive per timestep. The boards are shrunk to
// the layout's end so a fuzz run does not page in n+1 full DRAMs per input.
func groupVsSingle(kind kernels.RNNKind, hidden, steps, n, mantissa int, seed int64, reorder bool) error {
	w := kernels.RandomWeights(kind, hidden, seed)
	single, err := kernels.Build(w, steps, 1)
	if err != nil {
		return err
	}
	sg, err := BuildScaledGroup(w, steps, 1, n)
	if err != nil {
		return err
	}
	for _, k := range append([]*kernels.Kernel{single}, sg.Kernels...) {
		k.Cfg.MantissaBits = mantissa
		k.Cfg.DRAMWords = k.OutputAddr(steps)
	}
	if reorder {
		for d := range sg.Progs {
			sg.Progs[d] = ReorderForOverlap(sg.Progs[d], uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr))
		}
	}
	m, err := single.NewMachine()
	if err != nil {
		return err
	}
	ms, syncs, err := sg.NewMachines()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed + 1))
	for tt := 0; tt < steps; tt++ {
		x := make([]float64, hidden)
		for i := range x {
			x[i] = r.NormFloat64() * 0.5
		}
		if err := single.SetInput(m, tt, x); err != nil {
			return err
		}
		if err := sg.SetInput(ms, tt, x); err != nil {
			return err
		}
	}
	if err := m.Run(single.Prog); err != nil {
		return err
	}
	if err := sg.Run(ms); err != nil {
		return err
	}
	for tt := 0; tt < steps; tt++ {
		want, err := readWords(m.DRAMPort(), single.OutputAddr(tt), hidden)
		if err != nil {
			return err
		}
		got, err := sg.ReadOutput(ms, tt)
		if err != nil {
			return err
		}
		// fp16 → float64 is exact, so the round trip recovers the words.
		for i, x := range got {
			if word := fp16.FromFloat64(x); word != want[i] {
				return fmt.Errorf("step %d elem %d: group %#04x, single device %#04x", tt, i, word, want[i])
			}
		}
	}
	for d, s := range syncs {
		if st := s.Stats(); st.Sends != steps || st.Receives != steps {
			return fmt.Errorf("device %d: %d sends, %d receives over %d steps", d, st.Sends, st.Receives, steps)
		}
	}
	return nil
}

// The scaled group is the single-device kernel sharded: same step program,
// same dataflow, so its outputs equal the n = 1 kernel's fp16 words exactly
// (the reference tests above only hold it to float64 within 0.1), in
// program order and after the reordering tool.
func TestScaledGroupMatchesSingleDevice(t *testing.T) {
	for _, kind := range []kernels.RNNKind{kernels.LSTM, kernels.GRU} {
		for _, n := range groupSizes {
			for _, mantissa := range []int{0, 9} {
				for _, reorder := range []bool{false, true} {
					if err := groupVsSingle(kind, 32, 4, n, mantissa, 99, reorder); err != nil {
						t.Errorf("%v n=%d mantissa=%d reorder=%v: %v", kind, n, mantissa, reorder, err)
					}
				}
			}
		}
	}
}

// FuzzScaledMatchesSingle: over cell kind, hidden size (multiples of 4 up
// to 64), sequence length (≤ 4), group size, weight/input seed and the
// reordering tool on or off, the group's output words equal the single
// device's and every sync module counts T sends and T receives.
func FuzzScaledMatchesSingle(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(3), false, int64(1), false)
	f.Add(uint8(1), uint8(15), uint8(2), true, int64(2), true)
	f.Fuzz(func(t *testing.T, kind, hq, steps uint8, quad bool, seed int64, reorder bool) {
		n := 2
		if quad {
			n = 4
		}
		k := []kernels.RNNKind{kernels.LSTM, kernels.GRU}[kind%2]
		hidden, T := 4*(1+int(hq%16)), 1+int(steps%4)
		if err := groupVsSingle(k, hidden, T, n, 0, seed, reorder); err != nil {
			t.Errorf("%v h=%d t=%d n=%d seed=%d reorder=%v: %v", k, hidden, T, n, seed, reorder, err)
		}
	})
}

// The insertion tool adds exactly the send before and the receive after
// every per-step output write — two instructions per timestep — and moves
// nothing else; what it produces passes the static validator once the
// trapped addresses are declared.
func TestInsertSync(t *testing.T) {
	for _, tc := range []struct {
		kind     kernels.RNNKind
		n, steps int
	}{
		{kernels.LSTM, 2, 1}, {kernels.LSTM, 4, 3}, {kernels.GRU, 2, 5}, {kernels.GRU, 4, 2},
	} {
		k, err := kernels.BuildShard(kernels.RandomWeights(tc.kind, 32, 5), tc.steps, 1, tc.n-1, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{SendAddr: k.Cfg.DRAMWords, RecvAddr: k.Cfg.DRAMWords + 1, ShardWords: 32 / tc.n}
		send, recv := uint32(cfg.SendAddr), uint32(cfg.RecvAddr)
		got := InsertSync(k.Prog, cfg)
		if len(got) != len(k.Prog)+2*tc.steps {
			t.Errorf("%v n=%d: %d instructions from %d over %d steps, want +2 per step",
				tc.kind, tc.n, len(got), len(k.Prog), tc.steps)
		}
		var rest isa.Program
		for i, ins := range got {
			switch {
			case ins.Op == isa.OpVWrite && ins.Imm == send:
				if next := got[i+1]; next.Op != isa.OpVWrite || next.Src1 != ins.Src1 || next.Imm == send {
					t.Errorf("%v n=%d: send at %d is followed by %v, want the output write of r%d", tc.kind, tc.n, i, next, ins.Src1)
				}
			case ins.Op == isa.OpVRead && ins.Imm == recv:
				if prev := got[i-1]; prev.Op != isa.OpVWrite || prev.Imm == send || ins.Dst != kernels.HiddenReg {
					t.Errorf("%v n=%d: receive at %d (into r%d) follows %v, want an output write", tc.kind, tc.n, i, ins.Dst, prev)
				}
			default:
				rest = append(rest, ins)
			}
		}
		if !reflect.DeepEqual(rest, k.Prog) {
			t.Errorf("%v n=%d: the instructions besides send/receive are not the input program in order", tc.kind, tc.n)
		}
		issues := isa.Validate(got, isa.MachineSpec{
			VRegs: k.Cfg.VRegs, MRegs: k.Cfg.MRegs, DRAMWords: k.Cfg.DRAMWords,
			InstrBufBytes: k.Cfg.InstrBufBytes, TrappedAddrs: []uint32{send, recv},
		})
		if len(issues) != 0 {
			t.Errorf("%v n=%d: %d static issues; first: %v", tc.kind, tc.n, len(issues), issues[0])
		}
	}
}

// OverlapMVMs measures, per steady-state timestep of a reordered program,
// how many matrix-vector products execute between the sync send and the
// blocking receive — the work that actually overlaps the inter-FPGA
// transfer. It validates the timing model's overlap-window assumption
// against the real instruction schedule.
func OverlapMVMs(p isa.Program, sendAddr, recvAddr uint32) []int {
	var out []int
	counting := false
	count := 0
	for _, ins := range p {
		switch {
		case ins.Op == isa.OpVWrite && ins.Imm == sendAddr:
			counting = true
			count = 0
		case ins.Op == isa.OpVRead && ins.Imm == recvAddr:
			if counting {
				out = append(out, count)
			}
			counting = false
		case counting && ins.Op == isa.OpMVMul:
			count++
		}
	}
	return out
}
