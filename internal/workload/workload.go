// Package workload synthesizes the system-level benchmark sets of §4.1
// (Table 1): sequences of GRU/LSTM inference tasks drawn from small,
// medium and large model classes, arriving at random intervals to emulate
// a dynamic cloud environment. The paper generates these synthetically
// because no real-world FPGA cloud trace is public; we follow the same
// methodology with a seeded generator.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mlvfpga/internal/kernels"
)

// Class buckets models by hidden-unit count (Table 1's footnote).
type Class int

// Model classes.
const (
	// Small: #hidden units <= 1024.
	Small Class = iota
	// Medium: 1024 < #hidden units <= 2048.
	Medium
	// Large: #hidden units > 2048.
	Large
)

func (c Class) String() string {
	switch c {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// classLayers lists the concrete model configurations each class draws
// from. Small layers come from the Table 4 DeepBench set; medium and large
// extend the same cells past the class boundaries.
var classLayers = map[Class][]kernels.LayerSpec{
	Small: {
		{Kind: kernels.GRU, Hidden: 512, TimeSteps: 1},
		{Kind: kernels.GRU, Hidden: 1024, TimeSteps: 100},
		{Kind: kernels.LSTM, Hidden: 256, TimeSteps: 150},
		{Kind: kernels.LSTM, Hidden: 512, TimeSteps: 25},
		{Kind: kernels.LSTM, Hidden: 1024, TimeSteps: 25},
	},
	Medium: {
		{Kind: kernels.GRU, Hidden: 1536, TimeSteps: 375},
		{Kind: kernels.LSTM, Hidden: 1536, TimeSteps: 50},
		{Kind: kernels.GRU, Hidden: 2048, TimeSteps: 100},
		{Kind: kernels.LSTM, Hidden: 2048, TimeSteps: 50},
	},
	Large: {
		{Kind: kernels.GRU, Hidden: 2560, TimeSteps: 100},
		{Kind: kernels.LSTM, Hidden: 2560, TimeSteps: 50},
		{Kind: kernels.LSTM, Hidden: 2304, TimeSteps: 64},
		{Kind: kernels.GRU, Hidden: 3072, TimeSteps: 80},
	},
}

// Composition is one Table 1 workload mix.
type Composition struct {
	Index   int
	S, M, L float64
}

func (c Composition) String() string {
	return fmt.Sprintf("set %d: %.0f%% S + %.0f%% M + %.0f%% L", c.Index, 100*c.S, 100*c.M, 100*c.L)
}

// Table1 returns the ten compositions of Table 1.
func Table1() []Composition {
	return []Composition{
		{1, 1.00, 0.00, 0.00},
		{2, 0.00, 1.00, 0.00},
		{3, 0.00, 0.00, 1.00},
		{4, 0.50, 0.50, 0.00},
		{5, 0.50, 0.00, 0.50},
		{6, 0.00, 0.50, 0.50},
		{7, 0.33, 0.33, 0.34},
		{8, 0.10, 0.30, 0.60},
		{9, 0.30, 0.60, 0.10},
		{10, 0.60, 0.10, 0.30},
	}
}

// Task is one inference request.
type Task struct {
	ID      int
	Spec    kernels.LayerSpec
	Class   Class
	Arrival time.Duration
}

// Options configures set generation.
type Options struct {
	// NumTasks is the sequence length.
	NumTasks int
	// MeanInterarrival is the mean of the exponential interarrival time.
	MeanInterarrival time.Duration
	// Seed makes the set reproducible.
	Seed int64
}

// ErrBadComposition is returned when fractions do not sum to ~1.
var ErrBadComposition = errors.New("workload: composition fractions must sum to 1")

// Generate draws a task sequence from a composition: each task's class is
// sampled from the mix, the concrete layer uniformly within the class, and
// arrivals follow a Poisson process.
func Generate(comp Composition, opt Options) ([]Task, error) {
	if opt.NumTasks <= 0 {
		return nil, fmt.Errorf("workload: NumTasks = %d", opt.NumTasks)
	}
	if opt.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: MeanInterarrival = %v", opt.MeanInterarrival)
	}
	sum := comp.S + comp.M + comp.L
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("%w: got %v", ErrBadComposition, sum)
	}
	r := rand.New(rand.NewSource(opt.Seed))
	tasks := make([]Task, 0, opt.NumTasks)
	now := time.Duration(0)
	for i := 0; i < opt.NumTasks; i++ {
		now += time.Duration(r.ExpFloat64() * float64(opt.MeanInterarrival))
		u := r.Float64() * sum
		var class Class
		switch {
		case u < comp.S:
			class = Small
		case u < comp.S+comp.M:
			class = Medium
		default:
			class = Large
		}
		menu := classLayers[class]
		spec := menu[r.Intn(len(menu))]
		tasks = append(tasks, Task{ID: i, Spec: spec, Class: class, Arrival: now})
	}
	return tasks, nil
}

// Mix reports the realized class fractions of a task sequence.
func Mix(tasks []Task) (s, m, l float64) {
	if len(tasks) == 0 {
		return 0, 0, 0
	}
	for _, t := range tasks {
		switch t.Class {
		case Small:
			s++
		case Medium:
			m++
		case Large:
			l++
		}
	}
	n := float64(len(tasks))
	return s / n, m / n, l / n
}
