package kernels

import (
	"reflect"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
	"mlvfpga/internal/snapshot"
)

// TestSnapshotRestoreBitIdentical is the kernel-level golden
// preempted-twin test: a stream stepped to timestep tau, snapshotted,
// encoded through the wire codec, and restored into a different slot on
// a fresh machine (built from a re-derived kernel with a different tile
// count, as a migration would) finishes with outputs bit-identical to
// the same stream run without interruption.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, kind := range []RNNKind{LSTM, GRU, Attention} {
		t.Run(kind.String(), func(t *testing.T) {
			w := RandomWeights(kind, 32, 17)
			k, err := Build(w, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			T := k.Spec.TimeSteps
			inputs := batchInputs(k, 1, 23)[0]

			runSlot := func(kk *Kernel, m *accel.Machine, slot, from, to int) {
				t.Helper()
				for tau := from; tau < to; tau++ {
					if err := m.RunStreams(kk.Step, kk.WindowBase(), []int{slot}, []int{kk.SlotOffset(slot, tau)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			start := func(kk *Kernel, m *accel.Machine, slot int) {
				t.Helper()
				if err := m.RunStreams(kk.SharedInit, kk.WindowBase(), []int{0}, []int{0}); err != nil {
					t.Fatal(err)
				}
				for tt, x := range inputs {
					if err := kk.SetInputStream(m, slot, tt, x, make([]fp16.Num, len(x))); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.RunStreams(kk.StreamInit, kk.WindowBase(), []int{slot}, []int{kk.SlotOffset(slot, 0)}); err != nil {
					t.Fatal(err)
				}
			}

			// Twin: the stream run start-to-finish in slot 0.
			twin, err := k.NewBatchMachine(1)
			if err != nil {
				t.Fatal(err)
			}
			start(k, twin, 0)
			runSlot(k, twin, 0, 0, T)
			want := make([][]float64, T)
			for tt := 0; tt < T; tt++ {
				out, err := k.ReadOutput(twin, tt)
				if err != nil {
					t.Fatal(err)
				}
				want[tt] = out
			}

			// Preempted run: slot 2 on machine A, stopped after 2 steps.
			const cut = 2
			ma, err := k.NewBatchMachine(3)
			if err != nil {
				t.Fatal(err)
			}
			start(k, ma, 2)
			runSlot(k, ma, 2, 0, cut)
			snap, err := k.SnapshotSlot(ma, 2, cut, T)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Tau != cut || snap.Steps != uint32(T) {
				t.Fatalf("snapshot pc tau=%d steps=%d, want %d/%d", snap.Tau, snap.Steps, cut, T)
			}

			// The checkpoint crosses a wire: encode, decode, restore into a
			// *different* slot on a fresh machine built from a re-derived
			// kernel with a different tile count.
			restored, err := snapshot.Decode(snap.Encode())
			if err != nil {
				t.Fatal(err)
			}
			k2, err := Build(RandomWeights(kind, 32, 17), 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			if k2.StateHash() != k.StateHash() {
				t.Fatalf("tile count changed StateHash: %x vs %x", k2.StateHash(), k.StateHash())
			}
			mb, err := k2.NewBatchMachine(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.RunStreams(k2.SharedInit, k2.WindowBase(), []int{0}, []int{0}); err != nil {
				t.Fatal(err)
			}
			if err := k2.RestoreSlot(mb, 1, restored); err != nil {
				t.Fatal(err)
			}
			runSlot(k2, mb, 1, int(restored.Tau), T)
			for tt := 0; tt < T; tt++ {
				got := make([]float64, k2.Spec.Hidden)
				if err := k2.ReadOutputStream(mb, 1, tt, got, make([]fp16.Num, len(got))); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[tt]) {
					t.Errorf("t=%d restored output differs from never-preempted twin (not bit-identical)", tt)
				}
			}
		})
	}
}

// TestRestoreSlotRejectsForeignSnapshot pins the identity check: a
// snapshot taken under one kernel contract must not restore under a
// kernel whose layout or numerics differ.
func TestRestoreSlotRejectsForeignSnapshot(t *testing.T) {
	k, err := Build(RandomWeights(LSTM, 32, 1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Build(RandomWeights(LSTM, 16, 1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.StateHash() == other.StateHash() {
		t.Fatal("different hidden sizes hash equal")
	}
	m, err := k.NewBatchMachine(1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := k.SnapshotSlot(m, 0, 0, k.Spec.TimeSteps)
	if err != nil {
		t.Fatal(err)
	}
	om, err := other.NewBatchMachine(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreSlot(om, 0, snap); err == nil {
		t.Fatal("foreign snapshot restored without error")
	}
}
