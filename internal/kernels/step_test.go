package kernels

import (
	"reflect"
	"testing"

	"mlvfpga/internal/fp16"
)

// stepSlot is one continuously-batched stream in the test driver below:
// which machine slot it occupies, which input sequence it carries, and
// how far it has advanced.
type stepSlot struct {
	seq int // index into the input sequences
	tau int // next timestep to execute
}

// TestStepProgramsMatchMonolithic is the continuous-batching golden test:
// driving a machine with SharedInit + per-admission StreamInit + banked
// Step rounds over a cohort whose members sit at heterogeneous timesteps
// — including a stream admitted into a slot freed mid-run — produces
// outputs bit-identical to the monolithic Prog run per stream.
func TestStepProgramsMatchMonolithic(t *testing.T) {
	for _, kind := range []RNNKind{LSTM, GRU, Attention} {
		t.Run(kind.String(), func(t *testing.T) {
			w := RandomWeights(kind, 32, 9)
			k, err := Build(w, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			T := k.Spec.TimeSteps
			// Four sequences with heterogeneous lengths; seq 3 is admitted
			// into slot 1 after seq 1 retires at length 2.
			seqs := batchInputs(k, 4, 13)
			lens := []int{4, 2, 3, 3}

			// Reference: each sequence on its own machine under the
			// monolithic program (full T steps; h_t for t < len depends
			// only on inputs up to t).
			ref := make([][][]fp16.Num, len(seqs))
			for s := range seqs {
				rm, err := k.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				for tt, x := range seqs[s] {
					if err := k.SetInput(rm, tt, x); err != nil {
						t.Fatal(err)
					}
				}
				if err := rm.Run(k.Prog); err != nil {
					t.Fatal(err)
				}
				ref[s] = make([][]fp16.Num, T)
				for tt := 0; tt < T; tt++ {
					words, err := readWords(rm.DRAMPort(), k.OutputAddr(tt), k.Spec.Hidden)
					if err != nil {
						t.Fatal(err)
					}
					ref[s][tt] = words
				}
			}

			// Stepped machine: 3 slots, SharedInit once, then step rounds
			// with slot-granular admission and retirement.
			m, err := k.NewBatchMachine(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RunStreams(k.SharedInit, k.inputBase, []int{0}, []int{0}); err != nil {
				t.Fatal(err)
			}
			got := make([][][]fp16.Num, len(seqs))
			for s := range got {
				got[s] = make([][]fp16.Num, T)
			}
			admit := func(slot, seq int) *stepSlot {
				for tt := 0; tt < lens[seq]; tt++ {
					if err := k.SetInputStream(m, slot, tt, seqs[seq][tt], make([]fp16.Num, k.Spec.Hidden)); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.RunStreams(k.StreamInit, k.inputBase, []int{slot}, []int{k.SlotOffset(slot, 0)}); err != nil {
					t.Fatal(err)
				}
				return &stepSlot{seq: seq}
			}
			slots := map[int]*stepSlot{0: admit(0, 0), 1: admit(1, 1), 2: admit(2, 2)}
			pendingSeq := 3
			for len(slots) > 0 {
				var streams, offs []int
				for slot, st := range slots {
					streams = append(streams, slot)
					offs = append(offs, k.SlotOffset(slot, st.tau))
				}
				if err := m.RunStreams(k.Step, k.inputBase, streams, offs); err != nil {
					t.Fatal(err)
				}
				for slot, st := range slots {
					words, err := readWords(m.DRAMPort(), k.StreamOutputAddr(slot, st.tau), k.Spec.Hidden)
					if err != nil {
						t.Fatal(err)
					}
					got[st.seq][st.tau] = words
					st.tau++
					if st.tau == lens[st.seq] {
						// Retire; admit the waiting stream into the freed
						// slot mid-run (the continuous-batching move).
						delete(slots, slot)
						if pendingSeq < len(seqs) {
							slots[slot] = admit(slot, pendingSeq)
							pendingSeq++
						}
					}
				}
			}

			for s := range seqs {
				for tt := 0; tt < lens[s]; tt++ {
					if got[s][tt] == nil {
						t.Fatalf("seq %d t=%d never executed", s, tt)
					}
					if !reflect.DeepEqual(got[s][tt], ref[s][tt]) {
						t.Errorf("seq %d t=%d stepped output differs from monolithic (not bit-identical)", s, tt)
					}
				}
			}
		})
	}
}

// TestStepProgramShapes pins the decomposition's structure: SharedInit is
// exactly the m_rd prologue, StreamInit the bias loads + state zeroing,
// Step one timestep, and SlotOffset the banked-window arithmetic.
func TestStepProgramShapes(t *testing.T) {
	w := RandomWeights(LSTM, 16, 3)
	k, err := Build(w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(k.SharedInit), 8+1; got != want {
		t.Errorf("SharedInit = %d instrs, want %d", got, want)
	}
	if got, want := len(k.StreamInit), 4+2+1; got != want {
		t.Errorf("StreamInit = %d instrs, want %d", got, want)
	}
	if got, want := len(k.Step), StepInstructions(LSTM)+1; got != want {
		t.Errorf("Step = %d instrs, want %d", got, want)
	}
	if got, want := k.SlotOffset(2, 3), 2*k.StreamStride()+3*16; got != want {
		t.Errorf("SlotOffset(2,3) = %d, want %d", got, want)
	}
	// Step's banked addresses under SlotOffset land on the stream/timestep
	// addresses the monolithic program uses.
	off := k.SlotOffset(1, 2)
	if got, want := k.InputAddr(0)+off, k.StreamInputAddr(1, 2); got != want {
		t.Errorf("banked input addr = %d, want %d", got, want)
	}
	if got, want := k.OutputAddr(0)+off, k.StreamOutputAddr(1, 2); got != want {
		t.Errorf("banked output addr = %d, want %d", got, want)
	}
}
