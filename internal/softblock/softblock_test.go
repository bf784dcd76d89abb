package softblock

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mlvfpga/internal/resource"
)

func leaf(id string, luts int64) *Block {
	return NewLeaf(id, "mod_"+id, "path."+id, resource.Vector{LUTs: luts}, 32, 32)
}

// leafOf builds interchangeable copies: same module key, distinct IDs.
func leafOf(id, key string, luts int64) *Block {
	return NewLeaf(id, key, "path."+id, resource.Vector{LUTs: luts}, 32, 32)
}

func samplePipeline() *Block {
	return NewPipeline("p0", []*Block{leaf("a", 10), leaf("b", 20), leaf("c", 30)}, []int{64, 16})
}

func sampleData() *Block {
	return NewDataParallel("d0", []*Block{
		leafOf("x0", "simd", 10), leafOf("x1", "simd", 10), leafOf("x2", "simd", 10), leafOf("x3", "simd", 10),
	})
}

func TestRollups(t *testing.T) {
	p := samplePipeline()
	if p.Resources.LUTs != 60 {
		t.Errorf("pipeline roll-up = %v", p.Resources)
	}
	if p.InBits != 32 || p.OutBits != 32 {
		t.Errorf("pipeline IO = %d/%d", p.InBits, p.OutBits)
	}
	d := sampleData()
	if d.Resources.LUTs != 40 {
		t.Errorf("data roll-up = %v", d.Resources)
	}
	if d.InBits != 128 || d.OutBits != 128 {
		t.Errorf("data IO = %d/%d, want aggregated 128/128", d.InBits, d.OutBits)
	}
}

func TestValidateGood(t *testing.T) {
	nested := NewPipeline("root", []*Block{sampleData(), samplePipeline()}, []int{128})
	if err := nested.validate(map[string]bool{}); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := leaf("l", 1)
	bad.Children = []*Block{leaf("c", 1)}
	if err := bad.validate(map[string]bool{}); !errors.Is(err, ErrLeafWithChildren) {
		t.Errorf("leaf with children: %v", err)
	}

	single := NewPipeline("p", []*Block{leaf("a", 1)}, nil)
	if err := single.validate(map[string]bool{}); !errors.Is(err, ErrTooFewChildren) {
		t.Errorf("single-child pipeline: %v", err)
	}

	badBits := NewPipeline("p", []*Block{leaf("a", 1), leaf("b", 1)}, []int{1, 2})
	if err := badBits.validate(map[string]bool{}); !errors.Is(err, ErrStageBits) {
		t.Errorf("stage bits mismatch: %v", err)
	}

	dup := NewPipeline("p", []*Block{leaf("a", 1), leaf("a", 1)}, []int{8})
	if err := dup.validate(map[string]bool{}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: %v", err)
	}

	mixed := NewDataParallel("d", []*Block{leafOf("a", "m1", 1), leafOf("b", "m2", 1)})
	if err := mixed.validate(map[string]bool{}); !errors.Is(err, ErrDataMismatch) {
		t.Errorf("non-interchangeable data children: %v", err)
	}

	noMod := &Block{ID: "x", Kind: Leaf}
	if err := noMod.validate(map[string]bool{}); err == nil {
		t.Error("leaf without module must fail")
	}

	badKind := &Block{ID: "x", Kind: Kind(9)}
	if err := badKind.validate(map[string]bool{}); err == nil {
		t.Error("invalid kind must fail")
	}
}

func TestSameShape(t *testing.T) {
	pipe := func(ids string, a, b string, bits int) *Block {
		return NewPipeline("p"+ids, []*Block{leafOf(ids+"0", a, 1), leafOf(ids+"1", b, 2)}, []int{bits})
	}
	data := func(ids string, n int, key string) *Block {
		kids := make([]*Block, n)
		for i := range kids {
			kids[i] = leafOf(ids+itoa(i), key, 1)
		}
		return NewDataParallel("d"+ids, kids)
	}
	for _, c := range []struct {
		name string
		a, b *Block
		want bool
	}{
		{"ids, paths and resources are ignored", pipe("a", "m", "n", 8), pipe("b", "m", "n", 8), true},
		{"stage bandwidth 8 vs 16", pipe("a", "m", "n", 8), pipe("b", "m", "n", 16), false},
		{"leaf module m vs k", pipe("a", "m", "n", 8), pipe("b", "k", "n", 8), false},
		{"stage order", pipe("a", "m", "n", 8), pipe("b", "n", "m", 8), false},
		{"leaf vs pipeline", leafOf("a", "m", 1), pipe("b", "m", "n", 8), false},
		{"data over 4 vs 3 copies", data("a", 4, "m"), data("b", 3, "m"), false},
		{"data copies of m vs k", data("a", 2, "m"), data("b", 2, "k"), false},
		{"data over alike copies", data("a", 2, "m"), data("b", 2, "m"), true},
	} {
		if got := SameShape(c.a, c.b); got != c.want {
			t.Errorf("%s: SameShape = %v, want %v", c.name, got, c.want)
		}
	}
}

// signature renders a subtree's structure as text, as the shape
// SameShape compares: kinds and module keys, pipeline stage bandwidths,
// a data block's copy count and its first copy.
func signature(b *Block) string {
	switch b.Kind {
	case Leaf:
		return "L<" + b.ModuleKey + ">"
	case Pipeline:
		s := "P("
		for i, c := range b.Children {
			if i > 0 {
				s += "-" + itoa(b.StageBits[i-1]) + "-"
			}
			s += signature(c)
		}
		return s + ")"
	}
	return "D" + itoa(len(b.Children)) + "(" + signature(b.Children[0]) + ")"
}

// Property: SameShape agrees with comparing rendered signatures, on a
// random tree against a copy with at most one leaf key or stage
// bandwidth changed.
func TestQuickSameShapeMatchesSignature(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := 0
		tree := randomTree(r, 3, &gen)
		cp := new(Slab).Clone(tree)
		var nodes []*Block
		cp.Walk(func(b *Block) { nodes = append(nodes, b) })
		switch n := nodes[r.Intn(len(nodes))]; {
		case n.Kind == Leaf && r.Intn(2) == 0:
			n.ModuleKey = "mod" + itoa(r.Intn(4))
		case n.Kind == Pipeline:
			n.StageBits[r.Intn(len(n.StageBits))] += 8 * r.Intn(2)
		}
		return SameShape(tree, cp) == (signature(tree) == signature(cp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// leaves returns the leaf blocks of the subtree in left-to-right order.
func leaves(b *Block) []*Block {
	if b.Kind == Leaf {
		return []*Block{b}
	}
	var out []*Block
	for _, c := range b.Children {
		out = append(out, leaves(c)...)
	}
	return out
}

func TestLeavesAndDepth(t *testing.T) {
	nested := NewPipeline("root", []*Block{sampleData(), samplePipeline()}, []int{128})
	if n := nested.NumLeaves(); n != 7 {
		t.Errorf("NumLeaves = %d, want 7", n)
	}
	if d := nested.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	got := leaves(nested)
	if got[0].ID != "x0" || got[6].ID != "c" {
		t.Errorf("leaf order wrong: %v ... %v", got[0].ID, got[6].ID)
	}
}

func TestWalkOrder(t *testing.T) {
	p := samplePipeline()
	var ids []string
	p.Walk(func(b *Block) { ids = append(ids, b.ID) })
	if strings.Join(ids, ",") != "p0,a,b,c" {
		t.Errorf("walk order = %v", ids)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := samplePipeline()
	cp := new(Slab).Clone(p)
	cp.Children[0].Resources = resource.Vector{LUTs: 999}
	cp.StageBits[0] = 1
	if p.Children[0].Resources.LUTs == 999 || p.StageBits[0] == 1 {
		t.Error("Clone must deep-copy")
	}
	cp.StageBits[0] = p.StageBits[0]
	if !SameShape(cp, p) {
		t.Error("clone shape differs")
	}
}

func TestAcceleratorValidateAndJSON(t *testing.T) {
	acc := &Accelerator{
		Name:    "bw",
		Control: leaf("ctrl", 5000),
		Data:    NewPipeline("dp", []*Block{sampleData(), samplePipeline()}, []int{128}),
	}
	if err := acc.Validate(); err != nil {
		t.Fatalf("valid accelerator rejected: %v", err)
	}
	data, err := acc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped accelerator invalid: %v", err)
	}
	if !SameShape(back.Data, acc.Data) {
		t.Error("JSON round trip changed structure")
	}
	if back.Data.Kind != Pipeline {
		t.Errorf("kind decoded as %v", back.Data.Kind)
	}
}

func TestAcceleratorValidateCrossTreeIDs(t *testing.T) {
	acc := &Accelerator{
		Name:    "bw",
		Control: leaf("same", 1),
		Data:    NewPipeline("p", []*Block{leaf("same", 1), leaf("other", 1)}, []int{8}),
	}
	if err := acc.Validate(); err == nil {
		t.Error("colliding IDs across control/data must fail")
	}
	if err := (&Accelerator{}).Validate(); err == nil {
		t.Error("nil trees must fail")
	}
}

func TestKindJSON(t *testing.T) {
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"pipeline"`)); err != nil || k != Pipeline {
		t.Errorf("unmarshal pipeline: %v %v", k, err)
	}
	if err := k.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("bogus kind must fail")
	}
	if err := k.UnmarshalJSON([]byte(`7`)); err == nil {
		t.Error("non-string kind must fail")
	}
}

// randomTree builds a random valid tree for property tests.
func randomTree(r *rand.Rand, depth int, idGen *int) *Block {
	mk := func() string {
		*idGen++
		return strings.Repeat("n", 1) + "_" + string(rune('a'+*idGen%26)) + "_" + itoa(*idGen)
	}
	if depth <= 0 || r.Intn(3) == 0 {
		return NewLeaf(mk(), "mod"+itoa(r.Intn(4)), "", resource.Vector{LUTs: int64(r.Intn(100) + 1)}, 8, 8)
	}
	n := 2 + r.Intn(3)
	if r.Intn(2) == 0 {
		kids := make([]*Block, n)
		bits := make([]int, n-1)
		for i := range kids {
			kids[i] = randomTree(r, depth-1, idGen)
		}
		for i := range bits {
			bits[i] = 8 * (1 + r.Intn(8))
		}
		return NewPipeline(mk(), kids, bits)
	}
	// Data-parallel children must be interchangeable: clone one child.
	proto := randomTree(r, depth-1, idGen)
	kids := make([]*Block, n)
	kids[0] = proto
	for i := 1; i < n; i++ {
		c := new(Slab).Clone(proto)
		var relabel func(b *Block)
		relabel = func(b *Block) {
			b.ID = mk()
			for _, ch := range b.Children {
				relabel(ch)
			}
		}
		relabel(c)
		kids[i] = c
	}
	return NewDataParallel(mk(), kids)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Property: random trees validate, and clone preserves shape, leaves
// and resources.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := 0
		tree := randomTree(r, 3, &gen)
		if err := tree.validate(map[string]bool{}); err != nil {
			t.Logf("invalid random tree: %v\n%s", err, tree)
			return false
		}
		cp := new(Slab).Clone(tree)
		return SameShape(cp, tree) &&
			cp.NumLeaves() == tree.NumLeaves() &&
			cp.Resources == tree.Resources
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: resources of a node equal the sum over its leaves.
func TestQuickResourceRollup(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := 0
		tree := randomTree(r, 3, &gen)
		var sum resource.Vector
		for _, l := range leaves(tree) {
			sum = sum.Add(l.Resources)
		}
		return sum == tree.Resources
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDOT(t *testing.T) {
	tree := NewPipeline("root", []*Block{sampleData(), samplePipeline()}, []int{128})
	dot := tree.DOT("accel")
	for _, want := range []string{
		"digraph \"accel\"",
		"\"root\" -> \"d0\"",
		"\"root\" -> \"p0\" [label=\"128b\"]",
		"data x4",
		"shape=box",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Every node appears exactly once as a declaration (line-anchored so
	// edge statements do not count).
	tree.Walk(func(b *Block) {
		decl := "\n  \"" + b.ID + "\" ["
		if strings.Count(dot, decl) != 1 {
			t.Errorf("node %s declared %d times", b.ID, strings.Count(dot, decl))
		}
	})
}

// Walk visits every block in the subtree, parents before children.
func (b *Block) Walk(fn func(*Block)) {
	fn(b)
	for _, c := range b.Children {
		c.Walk(fn)
	}
}
