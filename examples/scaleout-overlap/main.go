// Scale-out acceleration with the §2.3 optimization: instead of splitting
// one accelerator across FPGAs, scale it down into two smaller instances,
// exchange the hidden state through the sync template module's trapped
// DRAM addresses, and reorder instructions so the inter-FPGA transfer
// overlaps the next step's input-dependent compute.
//
//	go run ./examples/scaleout-overlap
//
// The example runs the two linked accelerators functionally (in lockstep,
// each receive a barrier in the sync module), validates against the
// float64 reference, and then reproduces the Fig. 11 sweep analytically.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/scaleout"
)

func main() {
	// --- Functional part: two scaled-down LSTMs joined by sync modules.
	const hidden, steps = 64, 6
	w := kernels.RandomWeights(kernels.LSTM, hidden, 77)
	sg, err := scaleout.BuildScaledGroup(w, steps, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range sg.Kernels {
		k.Cfg.MantissaBits = 9
	}

	// The reordering tool sinks the blocking receive past the next step's
	// W*x products.
	for d := range sg.Progs {
		sg.Progs[d] = scaleout.ReorderForOverlap(sg.Progs[d],
			uint32(sg.SyncCfg.SendAddr), uint32(sg.SyncCfg.RecvAddr))
	}
	fmt.Printf("scaled LSTM h=%d onto 2 devices: %d instructions each, sync addresses %d/%d (out of DRAM range)\n",
		hidden, len(sg.Progs[0]), sg.SyncCfg.SendAddr, sg.SyncCfg.RecvAddr)

	ms, syncs, err := sg.NewMachines()
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	ref := kernels.NewReference(w)
	inputs := make([][]float64, steps)
	for t := range inputs {
		x := make([]float64, hidden)
		for i := range x {
			x[i] = r.NormFloat64() * 0.5
		}
		inputs[t] = x
		if err := sg.SetInput(ms, t, x); err != nil {
			log.Fatal(err)
		}
	}
	if err := sg.Run(ms); err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for t := range inputs {
		want, _ := ref.Step(inputs[t])
		got, err := sg.ReadOutput(ms, t)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
	}
	st := syncs[0].Stats()
	fmt.Printf("ran %d steps: %d half-vector exchanges per device, max |err| vs reference %.4f\n\n",
		steps, st.Sends, worst)

	// --- Analytic part: the Fig. 11 sweep.
	p := perf.DefaultParams()
	pair := []string{"XCVU37P", "XCVU37P"}
	fmt.Println("Fig. 11 sweep: per-step latency on 2x XCVU37P vs added inter-FPGA latency")
	for _, line := range []struct {
		label string
		spec  kernels.LayerSpec
	}{
		{"LSTM h=1024", kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 1}},
		{"GRU  h=1024", kernels.LayerSpec{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 1}},
		{"GRU  h=2560", kernels.LayerSpec{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 1}},
	} {
		budget, err := scaleout.HiddenLatencyBudget(line.spec, "XCVU37P", p, netmodel.DefaultRingLink())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (hides up to %v of added latency):\n", line.label, budget.Round(10*time.Nanosecond))
		for added := time.Duration(0); added <= time.Microsecond; added += 250 * time.Nanosecond {
			link := netmodel.DefaultRingLink()
			link.AddedLatency = added
			with, _, _, err := scaleout.NFPGAStep(line.spec, pair, p,
				scaleout.TwoFPGAOptions{Overlap: true, Link: link})
			if err != nil {
				log.Fatal(err)
			}
			without, _, _, err := scaleout.NFPGAStep(line.spec, pair, p,
				scaleout.TwoFPGAOptions{Overlap: false, Link: link})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("    +%4.2fus: overlap %7.3fus | naive %7.3fus\n",
				added.Seconds()*1e6, with.Seconds()*1e6, without.Seconds()*1e6)
		}
	}
}
