// mlv-bench regenerates the paper's tables and figures and prints them
// with the published values side by side.
//
// Usage:
//
//	mlv-bench                 # everything in experiments.All()
//	mlv-bench -only table4    # one experiment (-h lists the names)
//	mlv-bench -tasks 500      # Fig. 12 workload size
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlvfpga/internal/experiments"
)

func main() {
	all := experiments.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	only := flag.String("only", "", "run a single experiment ("+strings.Join(names, "|")+")")
	tasks := flag.Int("tasks", 0, "override the Fig. 12 workload size")
	flag.Parse()
	ran := false
	for _, e := range all {
		if *only != "" && *only != e.Name {
			continue
		}
		out, err := e.Run(*tasks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlv-bench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "mlv-bench: unknown experiment %q (want %s)\n", *only, strings.Join(names, "|"))
		os.Exit(2)
	}
}
