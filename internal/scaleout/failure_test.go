package scaleout

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
)

// flakyDRAM injects a failure after a fixed number of accesses, modelling
// a device dropping out mid-chain (e.g. ECC failure or board reset).
type flakyDRAM struct {
	inner     accel.DRAM
	remaining int
}

var errInjected = errors.New("injected DRAM failure")

func (f *flakyDRAM) ReadWordsInto(dst []fp16.Num, addr int) error {
	if f.remaining--; f.remaining < 0 {
		return errInjected
	}
	return f.inner.ReadWordsInto(dst, addr)
}

func (f *flakyDRAM) WriteWords(addr int, vals []fp16.Num) error {
	if f.remaining--; f.remaining < 0 {
		return errInjected
	}
	return f.inner.WriteWords(addr, vals)
}

// A device failing mid-run stops the group: Run returns the injected error,
// naming the failed device, without running another instruction.
func survivesDeviceFailure(t *testing.T, kind kernels.RNNKind, n, flaky, accesses int) {
	w := kernels.RandomWeights(kind, 16, 1)
	sg, err := BuildScaledGroup(w, 6, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	// Build machines by hand so the flaky device's DRAM fails underneath
	// its sync module.
	inners := make([]accel.DRAM, n)
	for i, k := range sg.Kernels {
		if inners[i], err = k.NewDRAM(); err != nil {
			t.Fatal(err)
		}
	}
	inners[flaky] = &flakyDRAM{inner: inners[flaky], remaining: accesses}
	syncs, err := NewSyncGroup(inners, sg.SyncCfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*accel.Machine, n)
	for dev, k := range sg.Kernels {
		if ms[dev], err = k.NewMachineOn(syncs[dev]); err != nil {
			t.Fatal(err)
		}
	}

	err = sg.Run(ms)
	if !errors.Is(err, errInjected) {
		t.Errorf("Run = %v, want the injected failure", err)
	}
	// The typed error must finger the injected member — this is what lets
	// the control plane mark the right device dead instead of stalling.
	var de *DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a *DeviceError the control plane can act on", err)
	}
	if de.Device != flaky {
		t.Errorf("DeviceError.Device = %d, want %d (the flaky member)", de.Device, flaky)
	}
}

func TestPairSurvivesDeviceFailure(t *testing.T) {
	survivesDeviceFailure(t, kernels.LSTM, 2, 0, 14)
}

// One dead device must not hang the other three.
func TestGroupSurvivesDeviceFailure(t *testing.T) {
	survivesDeviceFailure(t, kernels.GRU, 4, 2, 12)
}

// Run checks a group's trapped exchanges instead of waiting on them: a
// device missing a receive is refused before any instruction runs, a
// receive scheduled ahead of a peer's send fails naming that peer, and the
// instruction buffer bounds each whole program, not each segment Run cuts.
func TestGroupRejectsUnpairedSync(t *testing.T) {
	build := func(t *testing.T, n int, edit func(sg *ScaledGroup)) ([]*accel.Machine, error) {
		t.Helper()
		sg, err := BuildScaledGroup(kernels.RandomWeights(kernels.LSTM, 16, 1), 3, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		edit(sg)
		ms, _, err := sg.NewMachines()
		if err != nil {
			t.Fatal(err)
		}
		return ms, sg.Run(ms)
	}
	index := func(p isa.Program, op isa.Opcode, addr int) int {
		return slices.IndexFunc(p, func(ins isa.Instr) bool { return ins.Op == op && ins.Imm == uint32(addr) })
	}
	for _, n := range groupSizes {
		last := n - 1
		t.Run(fmt.Sprintf("missing-receive/n=%d", n), func(t *testing.T) {
			ms, err := build(t, n, func(sg *ScaledGroup) {
				r := index(sg.Progs[last], isa.OpVRead, sg.SyncCfg.RecvAddr)
				sg.Progs[last] = slices.Delete(slices.Clone(sg.Progs[last]), r, r+1)
			})
			var de *DeviceError
			if !errors.As(err, &de) || de.Device != last {
				t.Fatalf("Run = %v, want a *DeviceError naming device %d", err, last)
			}
			for d, m := range ms {
				if got := m.Stats().Instructions; got != 0 {
					t.Errorf("device %d ran %d instructions before the check failed", d, got)
				}
			}
		})
		t.Run(fmt.Sprintf("send-after-receive/n=%d", n), func(t *testing.T) {
			var recv0 int // where device 0's first receive sits in its program
			_, err := build(t, n, func(sg *ScaledGroup) {
				recv0 = index(sg.Progs[0], isa.OpVRead, sg.SyncCfg.RecvAddr)
				p := slices.Clone(sg.Progs[last])
				s := index(p, isa.OpVWrite, sg.SyncCfg.SendAddr)
				send := p[s]
				p = slices.Delete(p, s, s+1)
				r := index(p, isa.OpVRead, sg.SyncCfg.RecvAddr)
				sg.Progs[last] = slices.Insert(p, r+1, send)
			})
			var de *DeviceError
			want := fmt.Sprintf("before device %d sent its shard", last)
			if !errors.As(err, &de) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run = %v, want a *DeviceError saying %q", err, want)
			}
			// Device 0 fails at its first receive, located in its whole
			// program, not in the segment that receive starts.
			var xe *accel.ExecError
			if de.Device != 0 || !errors.As(err, &xe) || xe.PC != recv0 {
				t.Errorf("Run = %v, want device 0 failing at pc %d", err, recv0)
			}
		})
		t.Run(fmt.Sprintf("oversized/n=%d", n), func(t *testing.T) {
			_, err := build(t, n, func(sg *ScaledGroup) {
				for d, p := range sg.Progs {
					cuts, _ := sg.segments(p)
					largest := 0
					for k := 0; k+1 < len(cuts); k++ {
						largest = max(largest, p[cuts[k]:cuts[k+1]].Bytes())
					}
					if largest >= p.Bytes() {
						t.Fatalf("device %d: largest segment %d B is the whole program", d, largest)
					}
					sg.Kernels[d].Cfg.InstrBufBytes = largest
				}
			})
			if !errors.Is(err, accel.ErrProgramTooLarge) {
				t.Fatalf("Run = %v, want ErrProgramTooLarge", err)
			}
		})
	}
}

// readWords reads n words at addr through the port's one read method.
func readWords(d accel.DRAM, addr, n int) ([]fp16.Num, error) {
	out := make([]fp16.Num, n)
	return out, d.ReadWordsInto(out, addr)
}
