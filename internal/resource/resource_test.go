package resource

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorAddSub(t *testing.T) {
	a := Vector{LUTs: 10, DFFs: 20, BRAMKb: 30, URAMKb: 40, DSPs: 50}
	b := Vector{LUTs: 1, DFFs: 2, BRAMKb: 3, URAMKb: 4, DSPs: 5}
	got := a.Add(b)
	want := Vector{LUTs: 11, DFFs: 22, BRAMKb: 33, URAMKb: 44, DSPs: 55}
	if got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
}

func TestVectorScale(t *testing.T) {
	a := Vector{LUTs: 3, DSPs: 7}
	got := a.Scale(4)
	if got.LUTs != 12 || got.DSPs != 28 || got.DFFs != 0 {
		t.Errorf("Scale = %v", got)
	}
}

func TestVectorGetSetRoundTrip(t *testing.T) {
	v := Vector{LUTs: 1, DFFs: 2, BRAMKb: 3, URAMKb: 4, DSPs: 5} // in Kinds order
	for i, k := range Kinds {
		if v.Get(k) != int64(i+1) {
			t.Errorf("Get(%v) = %d, want %d", k, v.Get(k), i+1)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{LUT: "LUT", DFF: "DFF", BRAMKb: "BRAM(Kb)", URAMKb: "URAM(Kb)", DSP: "DSP"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestLookupDevice(t *testing.T) {
	d, err := LookupDevice("XCVU37P")
	if err != nil || d.Name != "XCVU37P" {
		t.Fatalf("LookupDevice(XCVU37P) = %v, %v", d, err)
	}
	if !d.HasURAM {
		t.Error("VU37P must have URAM")
	}
	if _, err := LookupDevice("XC7Z020"); err == nil {
		t.Error("unknown device must error")
	}
}

func TestPaperCluster(t *testing.T) {
	spec := PaperCluster()
	if spec["XCVU37P"] != 3 || spec["XCKU115"] != 1 {
		t.Fatalf("PaperCluster = %v", spec)
	}
}

func randomVector(r *rand.Rand) Vector {
	return Vector{
		LUTs:   r.Int63n(1 << 20),
		DFFs:   r.Int63n(1 << 20),
		BRAMKb: r.Int63n(1 << 20),
		URAMKb: r.Int63n(1 << 20),
		DSPs:   r.Int63n(1 << 20),
	}
}

// Property: Add is commutative.
func TestQuickAddSub(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r), randomVector(r)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
