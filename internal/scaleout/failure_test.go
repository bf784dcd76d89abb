package scaleout

import (
	"errors"
	"testing"
	"time"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/kernels"
)

// flakyDRAM injects a failure after a fixed number of accesses, modelling
// a device dropping out mid-chain (e.g. ECC failure or board reset).
type flakyDRAM struct {
	inner     accel.DRAM
	remaining int
}

var errInjected = errors.New("injected DRAM failure")

func (f *flakyDRAM) ReadWords(addr, n int) ([]fp16.Num, error) {
	if f.remaining--; f.remaining < 0 {
		return nil, errInjected
	}
	return f.inner.ReadWords(addr, n)
}

func (f *flakyDRAM) WriteWords(addr int, vals []fp16.Num) error {
	if f.remaining--; f.remaining < 0 {
		return errInjected
	}
	return f.inner.WriteWords(addr, vals)
}

// A device failing mid-run must abort the group: the peers unblock from
// the barrier and Run returns the injected error instead of deadlocking.
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

	done := make(chan error, 1)
	go func() { done <- sg.Run(ms) }()
	select {
	case err := <-done:
		if !errors.Is(err, errInjected) {
			t.Errorf("Run = %v, want the injected failure", err)
		}
		// The typed error must finger the injected member, not a victim
		// that merely observed the abort barrier — this is what lets the
		// control plane mark the right device dead instead of stalling.
		var de *DeviceError
		if !errors.As(err, &de) {
			t.Fatalf("Run = %v, want a *DeviceError the control plane can act on", err)
		}
		if de.Device != flaky {
			t.Errorf("DeviceError.Device = %d, want %d (the flaky member)", de.Device, flaky)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d-device group deadlocked after device failure", n)
	}
}

func TestPairSurvivesDeviceFailure(t *testing.T) {
	survivesDeviceFailure(t, kernels.LSTM, 2, 0, 14)
}

// One dead device must not hang the other three.
func TestGroupSurvivesDeviceFailure(t *testing.T) {
	survivesDeviceFailure(t, kernels.GRU, 4, 2, 12)
}

// Abort is idempotent and unblocks subsequent waits immediately.
func TestAbortIdempotent(t *testing.T) {
	for _, n := range groupSizes {
		_, syncs := newTestGroup(t, n)
		syncs[0].Abort()
		syncs[0].Abort() // idempotent: no panic
		// After the abort, sends stop blocking: within a few attempts the
		// buffer fills and the abort path must fire (select between a ready
		// buffer slot and the closed abort channel is racy by design, so only
		// the eventual outcome is deterministic).
		aborted := false
		for i := 0; i < 3 && !aborted; i++ {
			if err := syncs[1].WriteWords(100, make([]fp16.Num, 2)); errors.Is(err, ErrPeerAborted) {
				aborted = true
			}
		}
		if !aborted {
			t.Errorf("n=%d: sends after abort never returned ErrPeerAborted", n)
		}
		// On a fresh group with no peer data in flight, a receive after abort
		// fails immediately instead of blocking.
		_, fresh := newTestGroup(t, n)
		fresh[0].lastOwn = make([]fp16.Num, 2)
		fresh[0].Abort()
		if _, err := fresh[0].ReadWords(101, 2*n); !errors.Is(err, ErrPeerAborted) {
			t.Errorf("n=%d: receive after abort = %v, want ErrPeerAborted", n, err)
		}
	}
}
