package kernels

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
)

// batchInputs draws B deterministic input sequences for a kernel.
func batchInputs(k *Kernel, b int, seed int64) [][][]float64 {
	r := rand.New(rand.NewSource(seed))
	seqs := make([][][]float64, b)
	for s := range seqs {
		seqs[s] = make([][]float64, k.Spec.TimeSteps)
		for t := range seqs[s] {
			x := make([]float64, k.Spec.Hidden)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			seqs[s][t] = x
		}
	}
	return seqs
}

// TestRunBatchGolden: the whole program run once over B banked streams
// (RunStreams, identity selection) is bit-identical — outputs as fp16 words
// AND accumulated ExecStats — to B sequential Runs on one warm machine.
func TestRunBatchGolden(t *testing.T) {
	for _, kind := range []RNNKind{LSTM, GRU} {
		t.Run(kind.String(), func(t *testing.T) {
			const B = 4
			w := RandomWeights(kind, 64, 7)
			k, err := Build(w, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			seqs := batchInputs(k, B, 11)

			// Sequential reference: one machine, warmed, B runs in a row.
			sm, err := k.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.Run(k.Prog); err != nil {
				t.Fatal(err)
			}
			seqBase := sm.Stats()
			seqOut := make([][][]fp16.Num, B)
			for s := 0; s < B; s++ {
				for tt, x := range seqs[s] {
					if err := k.SetInput(sm, tt, x); err != nil {
						t.Fatal(err)
					}
				}
				if err := sm.Run(k.Prog); err != nil {
					t.Fatal(err)
				}
				seqOut[s] = make([][]fp16.Num, k.Spec.TimeSteps)
				for tt := range seqOut[s] {
					words, err := readWords(sm.DRAMPort(), k.OutputAddr(tt), k.Spec.Hidden)
					if err != nil {
						t.Fatal(err)
					}
					seqOut[s][tt] = words
				}
			}
			seqDelta := sm.Stats().Minus(seqBase)

			// Batched: one warm machine, one RunStreams over all B slots.
			bm, err := k.NewBatchMachine(B)
			if err != nil {
				t.Fatal(err)
			}
			if err := bm.Run(k.Prog); err != nil {
				t.Fatal(err)
			}
			batchBase := bm.Stats()
			var slots, offsets []int
			for s := 0; s < B; s++ {
				slots, offsets = append(slots, s), append(offsets, k.SlotOffset(s, 0))
				for tt, x := range seqs[s] {
					if err := k.SetInputStream(bm, s, tt, x, make([]fp16.Num, len(x))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := bm.RunStreams(k.Prog, k.WindowBase(), slots, offsets); err != nil {
				t.Fatal(err)
			}
			batchDelta := bm.Stats().Minus(batchBase)

			for s := 0; s < B; s++ {
				for tt := 0; tt < k.Spec.TimeSteps; tt++ {
					words, err := readWords(bm.DRAMPort(), k.StreamOutputAddr(s, tt), k.Spec.Hidden)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(words, seqOut[s][tt]) {
						t.Fatalf("stream %d t=%d output differs from sequential run (not bit-identical)", s, tt)
					}
				}
			}
			if !reflect.DeepEqual(batchDelta, seqDelta) {
				t.Errorf("batched stats delta = %+v,\nsequential delta = %+v", batchDelta, seqDelta)
			}
		})
	}
}

func TestNewBatchMachineBounds(t *testing.T) {
	w := RandomWeights(LSTM, 64, 1)
	k, err := Build(w, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewBatchMachine(0); err == nil {
		t.Error("batch 0 must fail")
	}
	m, err := k.NewBatchMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	// Right-sized DRAM: image plus 4 banked stream windows, not the full
	// default board.
	want := k.inputBase + 4*k.StreamStride()
	word := []fp16.Num{0}
	if err := m.DRAMPort().WriteWords(want-1, word); err != nil {
		t.Errorf("last word of the sized DRAM (%d): %v", want-1, err)
	}
	if err := m.DRAMPort().WriteWords(want, word); !errors.Is(err, accel.ErrDRAMRange) {
		t.Errorf("DRAM holds more than %d words: write past the end = %v", want, err)
	}
	// A batch that cannot fit the default board fails loudly.
	huge := (k.Cfg.DRAMWords-k.inputBase)/k.StreamStride() + 1
	if _, err := k.NewBatchMachine(huge); err == nil {
		t.Errorf("batch %d exceeding DRAM must fail", huge)
	}
}

func TestStreamAddrLayout(t *testing.T) {
	w := RandomWeights(GRU, 32, 1)
	k, err := Build(w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.StreamInputAddr(0, 2) != k.InputAddr(2) || k.StreamOutputAddr(0, 4) != k.OutputAddr(4) {
		t.Error("stream 0 must alias the unbatched addresses")
	}
	stride := k.StreamStride()
	if stride != 2*32*5 {
		t.Errorf("stride = %d, want %d", stride, 2*32*5)
	}
	// Stream windows are disjoint: stream s ends before stream s+1 begins.
	endOfS0 := k.StreamOutputAddr(0, 4) + 32
	if k.StreamInputAddr(1, 0) != endOfS0 {
		t.Errorf("stream 1 starts at %d, stream 0 ends at %d", k.StreamInputAddr(1, 0), endOfS0)
	}
}
