package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// value is one printed number.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a percentile or
	// median (0 where the value is a ratio of totals).
	Samples int `json:"samples,omitempty"`
}

// host is the fingerprint stamped on every output: numbers from two hosts,
// or from one host at two GOMAXPROCS settings, are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// report is one run's full outcome: what -out writes and what the table
// and the final JSON line are printed from.
type report struct {
	Host           host    `json:"host"`
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	WindowSeconds  float64 `json:"window_seconds"`
	SegmentSeconds float64 `json:"segment_seconds"`
	Trace          bool    `json:"trace"`
	Smoke          bool    `json:"smoke,omitempty"`
	// Metrics are the declared ones (end-to-end without -trace, per-layer
	// with it); Diagnostics are printed and recorded but never gated.
	Metrics     []value `json:"metrics"`
	Diagnostics []value `json:"diagnostics,omitempty"`
	Attempted   int     `json:"ops_attempted"`
	OK          int     `json:"ops_ok"`
	Failed      int     `json:"ops_failed"`
	TraceFile   string  `json:"trace_file,omitempty"`
}

// check rejects a report the contract would: a declared metric missing,
// printed twice, or not a finite number.
func (r *report) check() error {
	want := endToEnd
	if r.Trace {
		want = perLayer
	}
	seen := map[string]bool{}
	for _, m := range r.Metrics {
		d, ok := findDecl(want, m.Name)
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not declared", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %s reported twice", m.Name)
		case d.unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", m.Name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for _, d := range want {
		if !seen[d.name] {
			return fmt.Errorf("declared metric %s was not measured", d.name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

// print writes the human-readable table and, as the last line, the JSON
// object the driver reads.
func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host      nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "run       workload=%s seed=%d window=%.3fs segment=%.3fs trace=%t smoke=%t\n",
		r.Workload, r.Seed, r.WindowSeconds, r.SegmentSeconds, r.Trace, r.Smoke)
	row := func(kind string, v value) {
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(w, "%-10s%-42s %16.6f %-6s %s\n", kind, v.Name, v.Value, v.Unit, n)
	}
	for _, v := range r.Metrics {
		row("metric", v)
	}
	for _, v := range r.Diagnostics {
		row("diag", v)
	}
	fmt.Fprintf(w, "ops       ops_attempted=%d ops_ok=%d ops_failed=%d\n", r.Attempted, r.OK, r.Failed)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace     %s\n", r.TraceFile)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, v := range r.Metrics {
		last.Metrics[v.Name] = mv{v.Value, v.Unit}
	}
	line, _ := json.Marshal(last) // cannot fail: check() refused NaN and Inf
	fmt.Fprintf(w, "%s\n", line)
}

func (r *report) writeFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
