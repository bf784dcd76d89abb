// mlv-bench regenerates the paper's tables and figures and prints them
// with the published values side by side.
//
// Usage:
//
//	mlv-bench                 # everything
//	mlv-bench -only table4    # one experiment: table2|table3|table4|fig11|fig12|compile|ibuf|ablation
//	mlv-bench -tasks 500      # Fig. 12 workload size
package main

import (
	"flag"
	"fmt"
	"os"

	"mlvfpga/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (table2|table3|table4|fig11|fig12|compile|ibuf|ablation|load|policy|numerics)")
	tasks := flag.Int("tasks", 0, "override the Fig. 12 workload size")
	flag.Parse()

	run := func(name string) bool { return *only == "" || *only == name }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mlv-bench:", err)
		os.Exit(1)
	}

	if run("table2") {
		rows, err := experiments.Table2()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable2(rows))
	}
	if run("table3") {
		rows, err := experiments.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable3(rows))
	}
	if run("table4") {
		rows, err := experiments.Table4()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable4(rows))
	}
	if run("fig11") {
		series, err := experiments.Fig11()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig11(series))
	}
	if run("fig12") {
		opt := experiments.DefaultFig12Options()
		if *tasks > 0 {
			opt.NumTasks = *tasks
		}
		sum, err := experiments.Fig12(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig12(sum))
	}
	if run("compile") {
		r, err := experiments.CompileOverhead(0, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatCompileOverhead(r))
	}
	if run("ibuf") {
		rows, err := experiments.InstructionBufferFit()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatInstructionBufferFit(rows))
	}
	if run("ablation") {
		rows, err := experiments.AblationPartition()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatAblationPartition(rows))
	}
	if run("load") {
		points, err := experiments.LoadSweep(7, 200, 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatLoadSweep(points))
	}
	if run("numerics") {
		rows, err := experiments.AblationNumerics()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatAblationNumerics(rows))
	}
	if run("policy") {
		n := 200
		if *tasks > 0 {
			n = *tasks
		}
		rows, err := experiments.AblationPolicy(n, 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatAblationPolicy(rows))
	}
}
