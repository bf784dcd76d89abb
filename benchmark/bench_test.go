package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarations holds BENCHMARK.json to the tables the program prints
// from, and both to the driver's naming rules.
func TestDeclarations(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's window is %d", b.RunSeconds, runSeconds)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, the program runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	compare := func(kind string, got []metricJSON, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, the program has %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q (%q): name or unit breaks the naming rules", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("name %q is used twice", g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s %s: bound %v, the program has %v", kind, g.Name, g.Bound, w.bound)
			case bounded && g.Name != "setup_s" && (w.bound <= 0 || w.bound > maxBound):
				t.Errorf("%s %s: bound %v must be in (0, %v]", kind, g.Name, w.bound, maxBound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if d, ok := findDecl(endToEnd, "setup_s"); !ok || d.unit != "s" || d.better != "lower" {
		t.Errorf("end_to_end must contain setup_s in s, lower is better")
	}
}

// TestFleetHashMismatch checks that fleet_sim counts an op whose trace hash
// differs from the instance's first as failed.
func TestFleetHashMismatch(t *testing.T) {
	f := &fleet{}
	if err := f.setUp(config{seed: 3, smoke: true}); err != nil {
		t.Fatal(err)
	}
	if !f.op(0) {
		t.Fatal("a second run of instance 0 did not reproduce its trace hash")
	}
	f.hashes[0] = "not-" + f.hashes[0]
	if f.op(0) {
		t.Error("an op whose trace hash differs from the instance's first counted as correct")
	}
}

// TestSmoke runs every workload, end to end and traced, on fixed small op
// counts. It asserts what is printed, never how fast, so it holds on a
// loaded host.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: runSeconds, trace: traced, smoke: true, traceDir: t.TempDir()}
			label := name
			if traced {
				label += "/trace"
			}
			t.Run(label, func(t *testing.T) {
				rep, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkPrinted(t, rep)
				if traced {
					checkTraceFile(t, rep.TraceFile)
				}
			})
		}
	}
}

// checkPrinted asserts that the table names every declared metric exactly
// once with its unit and a finite value, that end-to-end values are not
// zero, that no op failed, and that the last line is the driver's object.
func checkPrinted(t *testing.T, rep *report) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := endToEnd
	if rep.Trace {
		want = perLayer
	}
	printed := map[string]int{}
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) >= 4 && f[0] == "metric" {
			printed[f[1]]++
			if d, ok := findDecl(want, f[1]); !ok || d.unit != f[3] {
				t.Errorf("printed %q: not declared with that unit", ln)
			}
		}
	}
	for _, d := range want {
		if printed[d.name] != 1 {
			t.Errorf("metric %s printed %d times, want once", d.name, printed[d.name])
		}
	}
	if len(printed) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(printed), len(want))
	}

	var last struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	if !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", *last.Correct, *last.Attempted, *last.Failed)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("result object has %d metrics, %d declared", len(last.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := last.Metrics[d.name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("result object lacks %s", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, declared %q", d.name, m.Unit, d.unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s = %v", d.name, *m.Value)
		case !rep.Trace && *m.Value <= 0:
			// Per-layer counts such as steals or migrations may be zero;
			// an end-to-end metric never is.
			t.Errorf("%s = %v, want > 0", d.name, *m.Value)
		}
	}
}

// checkTraceFile asserts the span file decodes, encodes back to the same
// bytes, and names only parents that exist in the same op.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	back, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(back, '\n'), blob) {
		t.Errorf("%s does not round-trip", path)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	type key struct {
		op   int
		name string
	}
	have := map[key]bool{}
	for _, s := range tf.Spans {
		have[key{s.Op, s.Name}] = true
		if s.End < s.Start || !nameRE.MatchString(s.Name) {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, s := range tf.Spans {
		if s.Parent != "" && !have[key{s.Op, s.Parent}] {
			t.Errorf("span %+v: parent does not exist in op %d", s, s.Op)
		}
	}
}
