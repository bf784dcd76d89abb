package bfp

import (
	"math"
	"math/rand"
	"testing"
)

// packedAgainstOracle checks every route through the packed kernel against
// the unpacked oracle, bit for bit: MatVecInto per stream, MatVecBatchInto
// over all of them at once, and groupDot's exact arm (the in-package
// reference, which out-of-proof inputs take).
func packedAgainstOracle(t *testing.T, pm *PackedMatrix, ref *Matrix, vs [][]Block) {
	t.Helper()
	want := make([][]float64, len(vs))
	batch := make([][]float64, len(vs))
	vecs := make([]Vector, len(vs))
	for s, v := range vs {
		var err error
		if want[s], err = MatVec(ref, v); err != nil {
			t.Fatalf("oracle stream %d: %v", s, err)
		}
		got := make([]float64, pm.Rows)
		if err := pm.MatVecInto(got, v); err != nil {
			t.Fatalf("MatVecInto stream %d: %v", s, err)
		}
		sameBits(t, "MatVecInto", s, got, want[s])
		for g := 0; g*pm.lanes < pm.Rows; g++ {
			pm.groupDot(got, g, v, false)
		}
		sameBits(t, "exact arm", s, got, want[s])
		batch[s], vecs[s] = make([]float64, pm.Rows), Describe(v)
	}
	if err := pm.MatVecBatchInto(batch, vecs); err != nil {
		t.Fatalf("MatVecBatchInto: %v", err)
	}
	for s := range vs {
		sameBits(t, "MatVecBatchInto", s, batch[s], want[s])
	}
}

func sameBits(t *testing.T, what string, stream int, got, want []float64) {
	t.Helper()
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("%s stream %d row %d = %v (%#x), oracle %v (%#x)",
				what, stream, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
		}
	}
}

func TestPackedMatVecMatchesOracle(t *testing.T) {
	shapes := []struct{ rows, cols, bs int }{
		{1, 1, 1},
		{7, 10, 4},      // rows not a multiple of 2 or 4, ragged last block
		{5, 128, 128},   // the serving block size
		{9, 300, 128},   // three blocks, ragged tail
		{16, 256, 128},  // whole groups, whole blocks
		{3, 20, 1 << 9}, // block size beyond the row
	}
	lanesSeen := map[int]bool{}
	for _, width := range []int{2, 5, 6, 9, 12, 16, 24} {
		c := MustCodec(width)
		for _, sh := range shapes {
			r := rand.New(rand.NewSource(int64(width*1000 + sh.rows)))
			data := make([]float64, sh.rows*sh.cols)
			for i := range data {
				data[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(12)-6))
			}
			// An all-zero row block and an all-zero row.
			for i := 0; i < min(sh.bs, sh.cols); i++ {
				data[i] = 0
			}
			if sh.rows > 2 {
				clear(data[2*sh.cols : 3*sh.cols])
			}
			pm, err := c.QuantizeMatrixPacked(data, sh.rows, sh.cols, sh.bs)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := c.QuantizeMatrix(data, sh.rows, sh.cols, sh.bs)
			if err != nil {
				t.Fatal(err)
			}
			lanesSeen[pm.lanes] = true
			vs := make([][]Block, 3)
			for s := range vs {
				xs := make([]float64, sh.cols)
				for i := range xs {
					xs[i] = r.NormFloat64()
				}
				if s == 1 {
					clear(xs[:min(sh.bs, sh.cols)]) // an all-zero vector block
				}
				if vs[s], err = c.QuantizeVector(xs, sh.bs); err != nil {
					t.Fatal(err)
				}
				if v := Describe(vs[s]); !pm.fast(&v) {
					t.Errorf("width %d %dx%d/%d: codec-quantized vector missed the fast path", width, sh.rows, sh.cols, sh.bs)
				}
			}
			packedAgainstOracle(t, pm, ref, vs)
		}
	}
	if !lanesSeen[1] || !lanesSeen[2] || !lanesSeen[4] {
		t.Errorf("lane counts exercised: %v, want 1, 2 and 4", lanesSeen)
	}
}

// TestPackedLaneChoice pins the overflow-proof table of DESIGN.md §7 at the
// serving block size.
func TestPackedLaneChoice(t *testing.T) {
	for _, tc := range []struct{ width, bs, lanes int }{
		{2, 128, 4}, {5, 128, 4}, {6, 128, 2}, {6, 32, 4}, {9, 128, 2}, {12, 128, 2}, {13, 128, 2}, {14, 128, 1}, {16, 128, 1}, {24, 128, 1},
	} {
		pm, err := MustCodec(tc.width).QuantizeMatrixPacked(make([]float64, 8*tc.bs), 8, tc.bs, tc.bs)
		if err != nil {
			t.Fatal(err)
		}
		if pm.lanes != tc.lanes {
			t.Errorf("width %d block %d: %d lanes, want %d", tc.width, tc.bs, pm.lanes, tc.lanes)
		}
		// The proof obligation itself: the worst block dot fits its lane.
		if worst := pm.maxMag * pm.maxMag * int64(tc.bs); pm.lanes > 1 && worst >= 1<<(64/pm.lanes-1) {
			t.Errorf("width %d block %d: worst dot %d overflows a %d-bit lane", tc.width, tc.bs, worst, 64/pm.lanes)
		}
	}
}

// TestPackedSlowPathTriggers hand-builds the two kinds of vector the lanes
// were not proved for — a mantissa beyond the codec bound, an exponent in
// the deep-subnormal range — and checks both leave the fast path and still
// match the oracle; a weight exponent out there does the same for the
// whole matrix.
func TestPackedSlowPathTriggers(t *testing.T) {
	c := MustCodec(5)
	r := rand.New(rand.NewSource(11))
	data := make([]float64, 6*16)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	pm, _ := c.QuantizeMatrixPacked(data, 6, 16, 8)
	ref, _ := c.QuantizeMatrix(data, 6, 16, 8)
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	quantized := func() []Block { v, _ := c.QuantizeVector(xs, 8); return v }

	big, deep, high := quantized(), quantized(), quantized()
	big[1].Mant[3] = math.MinInt32 // |m| does not even fit int32
	deep[0].Exp = -1074
	high[1].Exp = 1070
	for name, v := range map[string][]Block{"mantissa": big, "deep exponent": deep, "high exponent": high} {
		if d := Describe(v); pm.fast(&d) {
			t.Errorf("%s: vector stayed on the fast path", name)
		}
	}
	packedAgainstOracle(t, pm, ref, [][]Block{big, quantized(), deep, high})

	data[20] = math.SmallestNonzeroFloat64 * 3 // drags row 1, block 0 down to 2^-1076-ish
	for i := 16; i < 24; i++ {
		if i != 20 {
			data[i] = 0
		}
	}
	pm, _ = c.QuantizeMatrixPacked(data, 6, 16, 8)
	ref, _ = c.QuantizeMatrix(data, 6, 16, 8)
	if !pm.exact {
		t.Error("deep-subnormal weight block did not mark the matrix exact-only")
	}
	packedAgainstOracle(t, pm, ref, [][]Block{quantized(), big})
}

func TestPackedShapeErrors(t *testing.T) {
	c := MustCodec(5)
	if _, err := c.QuantizeMatrixPacked([]float64{1, 2, 3}, 2, 2, 2); err == nil {
		t.Error("bad shape must error")
	}
	if _, err := c.QuantizeMatrixPacked([]float64{1, 2, 3, 4}, 2, 2, 0); err == nil {
		t.Error("bad block size must error")
	}
	pm, err := c.QuantizeMatrixPacked(make([]float64, 2*5), 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 2)
	good, _ := c.QuantizeVector(make([]float64, 5), 3)
	if err := pm.MatVecInto(out, good); err != nil {
		t.Errorf("matching vector: %v", err)
	}
	if err := pm.MatVecInto(out[:1], good); err == nil {
		t.Error("short output must error")
	}
	for name, v := range map[string][]Block{
		"missing blocks":  nil,
		"one block":       {{Mant: make([]int32, 5)}},
		"wrong block len": {{Mant: make([]int32, 4)}, {Mant: make([]int32, 1)}},
		"long tail":       {{Mant: make([]int32, 2)}, {Mant: make([]int32, 3)}},
		"short total":     {{Mant: make([]int32, 3)}, {Mant: make([]int32, 1)}},
	} {
		if err := pm.MatVecInto(out, v); err == nil {
			t.Errorf("%s: mis-blocked vector must error", name)
		}
	}
	if err := pm.MatVecBatchInto([][]float64{out}, nil); err == nil {
		t.Error("outputs without vectors must error")
	}
	if _, err := c.QuantizeRowsPacked(nil, 2, 5, 3, func(int) ([]float64, error) { return make([]float64, 4), nil }); err == nil {
		t.Error("short row must error")
	}
}

// TestPackedRefill refills a matrix in place — same storage, the second
// tile's products and not a blend of the two, no tile-sized allocation — and
// checks that a different shape or mantissa width gets fresh storage. The
// second shape has a ragged last block at the serving block size.
func TestPackedRefill(t *testing.T) {
	c := MustCodec(5)
	r := rand.New(rand.NewSource(5))
	for _, sh := range []struct{ rows, cols, bs int }{{6, 10, 4}, {5, 200, 128}} {
		data := make([]float64, sh.rows*sh.cols)
		rows := func(i int) ([]float64, error) { return data[i*sh.cols : (i+1)*sh.cols], nil }
		refill := func(into *PackedMatrix) *PackedMatrix {
			for i := range data {
				data[i] = r.NormFloat64()
			}
			pm, err := c.QuantizeRowsPacked(into, sh.rows, sh.cols, sh.bs, rows)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}
		first := refill(nil)
		pm := refill(first)
		if pm != first {
			t.Fatalf("%dx%d/%d: same-shape refill allocated a new matrix", sh.rows, sh.cols, sh.bs)
		}
		ref, _ := c.QuantizeMatrix(data, sh.rows, sh.cols, sh.bs)
		xs := make([]float64, sh.cols)
		for i := range xs {
			xs[i] = float64((i%7)-3) * 1.5
		}
		v, _ := c.QuantizeVector(xs, sh.bs)
		packedAgainstOracle(t, pm, ref, [][]Block{v})
		if n := testing.AllocsPerRun(10, func() { refill(pm) }); n > 1 {
			t.Errorf("%dx%d/%d: in-place refill allocates %v times, want 1 (one block of quantizer scratch)", sh.rows, sh.cols, sh.bs, n)
		}
		if other, _ := c.QuantizeRowsPacked(pm, sh.rows-1, sh.cols, sh.bs, rows); other == pm {
			t.Errorf("a %d-row matrix reused %d-row storage", sh.rows-1, sh.rows)
		}
		if other, _ := MustCodec(9).QuantizeRowsPacked(pm, sh.rows, sh.cols, sh.bs, rows); other == pm {
			t.Error("9-bit mantissas reused storage whose lanes were proved for 5")
		}
	}
}

// TestPackedTileBytes pins the [group][column] layout: a tile holds
// ⌈Rows/lanes⌉·Cols words and no padding to whole blocks, so an h=64 tile
// at the native dimension 128 is not stored at twice its width.
func TestPackedTileBytes(t *testing.T) {
	for _, cols := range []int{1, 31, 64, 128, 129, 200} {
		pm, err := MustCodec(DefaultMantissaBits).QuantizeMatrixPacked(make([]float64, 9*cols), 9, cols, 128)
		if err != nil {
			t.Fatal(err)
		}
		if want := (9 + pm.lanes - 1) / pm.lanes * cols; len(pm.words) != want || cap(pm.words) != want {
			t.Errorf("9x%d at block 128, %d lanes: %d words (cap %d), want %d", cols, pm.lanes, len(pm.words), cap(pm.words), want)
		}
	}
}

// TestPackedMatVecZeroAllocs keeps the per-call staging (the Vector facts,
// the lane sums) off the heap: both entry points are on the serving path
// of three benchmark workloads, where an allocation here is allocs_per_op.
func TestPackedMatVecZeroAllocs(t *testing.T) {
	c := MustCodec(DefaultMantissaBits)
	r := rand.New(rand.NewSource(1))
	data := make([]float64, 64*256)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	pm, err := c.QuantizeMatrixPacked(data, 64, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 8
	outs, vecs := make([][]float64, streams), make([]Vector, streams)
	var blocks []Block
	for s := range vecs {
		blocks, _ = c.QuantizeVector(data[s*256:(s+1)*256], 128)
		outs[s], vecs[s] = make([]float64, 64), Describe(blocks)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := pm.MatVecInto(outs[0], blocks); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MatVecInto allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := pm.MatVecBatchInto(outs, vecs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MatVecBatchInto(%d streams) allocates %v times, want 0", streams, n)
	}
}
