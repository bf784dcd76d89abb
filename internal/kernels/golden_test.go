package kernels

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// outputHash runs k.Prog over inputs drawn from seed and hashes every
// timestep's output words (FNV-64a over the fp16 bits, big-endian).
func outputHash(t *testing.T, k *Kernel, seed int64) uint64 {
	t.Helper()
	m, err := k.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for tt := 0; tt < k.Spec.TimeSteps; tt++ {
		x := make([]float64, k.Spec.Hidden)
		for i := range x {
			x[i] = r.NormFloat64() * 0.5
		}
		if err := k.SetInput(m, tt, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(k.Prog); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for tt := 0; tt < k.Spec.TimeSteps; tt++ {
		words, err := readWords(m.DRAMPort(), k.OutputAddr(tt), k.Spec.Hidden)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			h.Write([]byte{byte(w >> 8), byte(w)})
		}
	}
	return h.Sum64()
}

// TestBuildOutputGolden pins the output bits of Build + Prog on fixed
// weights and inputs. The literals were recorded while the single-device
// step programs interleaved each gate's W·x and U·h products; any later
// schedule of the same dataflow (the x-first order the scaled devices run)
// must reproduce them exactly.
func TestBuildOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		kind     RNNKind
		mantissa int // 0 = the machine default
		want     uint64
	}{
		{LSTM, 0, 0x84b3807dec9c7bea},
		{LSTM, 9, 0x7a69c56a745dfc74},
		{GRU, 0, 0xaa49d2109e250d44},
		{GRU, 9, 0xb5964f4ff947d51c},
		{Attention, 0, 0xdb0b35f7c1c82b0e},
		{Attention, 9, 0xd338f8df9d0978df},
	} {
		k, err := Build(RandomWeights(tc.kind, 64, 21), 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		k.Cfg.MantissaBits = tc.mantissa
		if got := outputHash(t, k, 22); got != tc.want {
			t.Errorf("%v mantissa %d: output hash %#016x, want %#016x", tc.kind, tc.mantissa, got, tc.want)
		}
	}
}
