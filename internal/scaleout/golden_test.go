package scaleout

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mlvfpga/internal/kernels"
	"mlvfpga/internal/netmodel"
	"mlvfpga/internal/perf"
)

const vu, ku = "XCVU37P", "XCKU115"

// TestScaleoutLatencyGolden pins the latency the scheduler prices every
// multi-device lease with: each Table 4 layer on a homogeneous pair, a
// heterogeneous pair, a homogeneous quad and a heterogeneous quad, with
// and without the §2.3 overlap, in nanoseconds over the default ring link.
// The LSTM/GRU literals were recorded while the pair and the group each
// had their own copy of the step formula; the merged model must reproduce
// them bit for bit.
func TestScaleoutLatencyGolden(t *testing.T) {
	sets := [4][]string{{vu, vu}, {vu, ku}, {vu, vu, vu, vu}, {vu, vu, vu, ku}}
	want := []struct {
		spec string
		lat  [4][2]time.Duration // per device set: {overlap, no overlap}
	}{
		{"GRU h=512 t=1", [4][2]time.Duration{{12632, 13202}, {18010, 18580}, {12138, 12666}, {17351, 17879}}},
		{"GRU h=1024 t=1500", [4][2]time.Duration{{8333000, 9444500}, {15588500, 16700000}, {8333000, 9317000}, {14952500, 15936500}}},
		{"GRU h=1536 t=375", [4][2]time.Duration{{2168750, 2510750}, {4115000, 4457000}, {2168750, 2462750}, {3973625, 4267625}}},
		{"LSTM h=256 t=150", [4][2]time.Duration{{729200, 801950}, {1659650, 1732400}, {703100, 772700}, {1624700, 1694300}}},
		{"LSTM h=512 t=25", [4][2]time.Duration{{152200, 166450}, {315275, 329525}, {135850, 149050}, {293475, 306675}}},
		{"LSTM h=1024 t=25", [4][2]time.Duration{{161700, 180225}, {327925, 346450}, {151150, 167550}, {313875, 330275}}},
		{"LSTM h=1536 t=50", [4][2]time.Duration{{343650, 389250}, {642650, 688250}, {324900, 364100}, {629200, 668400}}},
	}
	p := perf.DefaultParams()
	suite := kernels.DeepBenchSuite()
	if len(suite) != len(want) {
		t.Fatalf("%d suite layers, want %d", len(suite), len(want))
	}
	for i, spec := range suite {
		if spec.String() != want[i].spec {
			t.Fatalf("suite[%d] = %v, want %s", i, spec, want[i].spec)
		}
		for si, devs := range sets {
			for oi, overlap := range []bool{true, false} {
				got, err := NFPGALatency(spec, devs, p, TwoFPGAOptions{Overlap: overlap, Link: netmodel.DefaultRingLink()})
				if err != nil {
					t.Fatalf("%v on %v: %v", spec, devs, err)
				}
				if got != want[i].lat[si][oi] {
					t.Errorf("%v on %v overlap=%v: %d ns, want %d", spec, devs, overlap, got, want[i].lat[si][oi])
				}
			}
		}
	}

	// Attention: of the four projections only q, k and v schedule ahead of
	// the blocking receive, so the window is three gates wide. The group
	// copy of the formula said four and under-priced the exposed transfer
	// (3147 and 3079 ns with overlap); these are the only rows recorded
	// after the two copies became one. +1 µs of added link latency makes
	// the transfer outlast the window, h=256 keeps it small.
	att := kernels.LayerSpec{Kind: kernels.Attention, Hidden: 256, TimeSteps: 1}
	slow := netmodel.DefaultRingLink()
	slow.AddedLatency = time.Microsecond
	for _, tc := range []struct {
		devs    []string
		overlap bool
		step    time.Duration
	}{
		{sets[0], true, 3490},
		{sets[0], false, 4632},
		{sets[2], true, 3439},
		{sets[2], false, 4520},
	} {
		got, err := NFPGALatency(att, tc.devs, p, TwoFPGAOptions{Overlap: tc.overlap, Link: slow})
		if err != nil {
			t.Fatalf("%v on %v: %v", att, tc.devs, err)
		}
		if want := p.InvokeOverhead + tc.step; got != want {
			t.Errorf("%v on %v overlap=%v: %d ns, want %d", att, tc.devs, tc.overlap, got, want)
		}
	}

	// Error cases keep their kind.
	big := kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 4096, TimeSteps: 1}
	if _, err := NFPGALatency(big, sets[1], p, DefaultOptions()); !errors.Is(err, perf.ErrDoesNotFit) {
		t.Errorf("%v on %v: %v, want ErrDoesNotFit", big, sets[1], err)
	}
	odd := kernels.LayerSpec{Kind: kernels.GRU, Hidden: 510, TimeSteps: 1}
	if _, err := NFPGALatency(odd, sets[2], p, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "not divisible by 4") {
		t.Errorf("%v on 4 devices: %v, want a divisibility error", odd, err)
	}
	if _, err := NFPGALatency(suite[0], []string{vu}, p, DefaultOptions()); err == nil || !strings.Contains(err.Error(), ">= 2 devices") {
		t.Errorf("one device: %v, want a group-size error", err)
	}
}
