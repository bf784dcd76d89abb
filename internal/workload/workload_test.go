package workload

import (
	"math"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := map[int]Class{256: Small, 1024: Small, 1025: Medium, 2048: Medium, 2049: Large, 3072: Large}
	for h, want := range cases {
		if got := classify(h); got != want {
			t.Errorf("classify(%d) = %v, want %v", h, got, want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if Small.String() != "S" || Medium.String() != "M" || Large.String() != "L" {
		t.Error("class names wrong")
	}
}

func TestClassLayersConsistent(t *testing.T) {
	for _, c := range []Class{Small, Medium, Large} {
		layers := classLayers[c]
		if len(layers) == 0 {
			t.Fatalf("class %v has no layers", c)
		}
		for _, l := range layers {
			if classify(l.Hidden) != c {
				t.Errorf("layer %v listed under class %v", l, c)
			}
			if l.Hidden%4 != 0 {
				t.Errorf("layer %v hidden not divisible by 4 (needed for 4-way scale-out)", l)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	comps := Table1()
	if len(comps) != 10 {
		t.Fatalf("Table1 has %d sets, want 10", len(comps))
	}
	for _, c := range comps {
		sum := c.S + c.M + c.L
		if math.Abs(sum-1) > 0.001 {
			t.Errorf("%v sums to %v", c, sum)
		}
	}
	// Spot-check set 8: 10% S + 30% M + 60% L.
	if comps[7].S != 0.10 || comps[7].M != 0.30 || comps[7].L != 0.60 {
		t.Errorf("set 8 = %+v", comps[7])
	}
}

func TestGenerate(t *testing.T) {
	comp := Table1()[6] // 33/33/34
	tasks, err := Generate(comp, Options{NumTasks: 2000, MeanInterarrival: time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2000 {
		t.Fatalf("generated %d tasks", len(tasks))
	}
	// Arrivals strictly increasing and positive.
	prev := time.Duration(-1)
	for _, task := range tasks {
		if task.Arrival <= prev {
			t.Fatal("arrivals must be increasing")
		}
		prev = task.Arrival
	}
	// Realized mix near the composition.
	s, m, l := Mix(tasks)
	if math.Abs(s-0.33) > 0.05 || math.Abs(m-0.33) > 0.05 || math.Abs(l-0.34) > 0.05 {
		t.Errorf("realized mix = %.2f/%.2f/%.2f", s, m, l)
	}
	// Mean interarrival near 1ms.
	mean := tasks[len(tasks)-1].Arrival / time.Duration(len(tasks))
	if mean < 800*time.Microsecond || mean > 1200*time.Microsecond {
		t.Errorf("mean interarrival = %v", mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opt := Options{NumTasks: 50, MeanInterarrival: time.Millisecond, Seed: 7}
	a, _ := Generate(Table1()[0], opt)
	b, _ := Generate(Table1()[0], opt)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the sequence")
		}
	}
	opt.Seed = 8
	c, _ := Generate(Table1()[0], opt)
	same := true
	for i := range a {
		if a[i].Spec != c[i].Spec || a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds must differ")
	}
}

func TestGeneratePureComposition(t *testing.T) {
	tasks, err := Generate(Table1()[2], Options{NumTasks: 100, MeanInterarrival: time.Millisecond, Seed: 1}) // 100% L
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Class != Large {
			t.Fatalf("task %v in 100%%-L set has class %v", task.ID, task.Class)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	good := Options{NumTasks: 10, MeanInterarrival: time.Millisecond, Seed: 1}
	if _, err := Generate(Composition{Index: 0, S: 0.5}, good); err == nil {
		t.Error("bad composition must fail")
	}
	bad := good
	bad.NumTasks = 0
	if _, err := Generate(Table1()[0], bad); err == nil {
		t.Error("zero tasks must fail")
	}
	bad = good
	bad.MeanInterarrival = 0
	if _, err := Generate(Table1()[0], bad); err == nil {
		t.Error("zero interarrival must fail")
	}
}

func TestMixEmpty(t *testing.T) {
	if s, m, l := Mix(nil); s != 0 || m != 0 || l != 0 {
		t.Error("empty mix must be zero")
	}
}

// classify buckets a hidden size per Table 1: the rule classLayers'
// entries are checked against.
func classify(hidden int) Class {
	switch {
	case hidden <= 1024:
		return Small
	case hidden <= 2048:
		return Medium
	default:
		return Large
	}
}
