// mlv is the offline toolchain (§2.2) and the system-level simulator
// (§4.4) behind one front door.
//
// Usage:
//
//	mlv asm -c prog.asm -o prog.bin      # assemble text -> machine code
//	mlv asm -d prog.bin                  # disassemble machine code
//	mlv asm -check prog.asm              # static validation (registers, read-
//	                                     # before-write, DRAM bounds, buffer fit)
//	mlv decompose -tiles 8               # §2.2.1 on the built-in accelerator
//	mlv decompose -rtl design.v -top my_top -ctrl decoder,sequencer
//	mlv decompose -tiles 4 -o accel.json
//	mlv partition -in accel.json -n 2    # §2.2.2: the Fig. 6 partition tree
//	mlv partition -tiles 8 -n 2          # decompose the built-in design first
//	mlv compile -tiles 8 -n 2            # whole flow: RTL -> decompose ->
//	                                     # partition -> map onto every device
//	mlv sim -set 7 -tasks 300            # a Table 1 set under the baseline,
//	mlv sim -set 3 -interarrival 50us    # the restricted policies, the framework
//
// `mlv <subcommand> -h` lists a subcommand's flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/core"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/experiments"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
	"mlvfpga/internal/workload"
)

func main() {
	run := map[string]func(*flag.FlagSet, []string){
		"asm": asmCmd, "decompose": decomposeCmd, "partition": partitionCmd, "compile": compileCmd, "sim": simCmd,
	}
	if len(os.Args) < 2 || run[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: mlv asm|decompose|partition|compile|sim [flags]   (-h lists a subcommand's flags)")
		os.Exit(2)
	}
	run[os.Args[1]](flag.NewFlagSet("mlv "+os.Args[1], flag.ExitOnError), os.Args[2:])
}

// fail reports a subcommand's error and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "mlv %s: %v\n", os.Args[1], err)
	os.Exit(1)
}

func readFile(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	return data
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
}

// loadAccelerator is the front of the offline flow: RTL from a file, or the
// built-in BrainWave-like generator when rtlPath is empty, parsed and
// decomposed (§2.2.1) with the named control-path modules.
func loadAccelerator(rtlPath, top string, controls []string, tiles int, uram bool, seed int64) *decompose.Result {
	var src string
	if rtlPath != "" {
		src = string(readFile(rtlPath))
	} else {
		var err error
		if src, err = bwrtl.Generate(bwrtl.Profile{Tiles: tiles, UseURAM: uram}); err != nil {
			fail(err)
		}
	}
	design, err := rtl.ParseDesign(src, top)
	if err != nil {
		fail(err)
	}
	res, err := decompose.Decompose(design, top, nil, decompose.Options{ControlModules: controls, Seed: seed})
	if err != nil {
		fail(err)
	}
	return res
}

func asmCmd(fs *flag.FlagSet, args []string) {
	asmPath := fs.String("c", "", "assemble this source file")
	binPath := fs.String("d", "", "disassemble this machine-code file")
	checkPath := fs.String("check", "", "validate this source file")
	out := fs.String("o", "", "output file (default stdout)")
	vregs := fs.Int("vregs", 16, "vector register file size for -check")
	mregs := fs.Int("mregs", 8, "matrix register file size for -check")
	dram := fs.Int("dram", 64<<20, "DRAM words for -check")
	fs.Parse(args)

	emit := func(data []byte) {
		if *out == "" {
			os.Stdout.Write(data)
		} else {
			writeFile(*out, data)
		}
	}
	assemble := func(path string) isa.Program {
		prog, err := isa.Assemble(string(readFile(path)))
		if err != nil {
			fail(err)
		}
		return prog
	}
	switch {
	case *asmPath != "":
		prog := assemble(*asmPath)
		emit(isa.EncodeProgram(prog))
		fmt.Fprintf(os.Stderr, "assembled %d instructions (%d bytes)\n", len(prog), prog.Bytes())
	case *binPath != "":
		prog, err := isa.DecodeProgram(readFile(*binPath))
		if err != nil {
			fail(err)
		}
		emit([]byte(prog.Disassemble()))
	case *checkPath != "":
		prog := assemble(*checkPath)
		issues := isa.Validate(prog, isa.MachineSpec{
			VRegs: *vregs, MRegs: *mregs, DRAMWords: *dram, InstrBufBytes: kernels.InstrBufBytes,
		})
		if len(issues) == 0 {
			fmt.Printf("%s: %d instructions, no issues\n", *checkPath, len(prog))
			return
		}
		for _, is := range issues {
			fmt.Printf("%s: %s\n", *checkPath, is)
		}
		os.Exit(1)
	default:
		fs.Usage()
		os.Exit(2)
	}
}

func decomposeCmd(fs *flag.FlagSet, args []string) {
	rtlPath := fs.String("rtl", "", "RTL source file (default: generate the BrainWave-like accelerator)")
	top := fs.String("top", bwrtl.TopModule, "top-level module name")
	ctrl := fs.String("ctrl", strings.Join(bwrtl.ControlModules(), ","), "comma-separated control-path module names")
	tiles := fs.Int("tiles", 8, "tile engines for the generated accelerator")
	uram := fs.Bool("uram", true, "use URAM weight memories in the generated accelerator")
	seed := fs.Int64("seed", 1, "equivalence-checker seed")
	out := fs.String("o", "", "write the accelerator JSON to this file (default: stdout summary)")
	dot := fs.String("dot", "", "write the data-path tree as Graphviz to this file")
	fs.Parse(args)

	var controls []string
	for _, c := range strings.Split(*ctrl, ",") {
		if c = strings.TrimSpace(c); c != "" {
			controls = append(controls, c)
		}
	}
	res := loadAccelerator(*rtlPath, *top, controls, *tiles, *uram, *seed)
	acc := res.Accelerator
	fmt.Printf("decomposed %s: %d basic instances, %d control, %d data merges, %d pipeline merges, %d iterations\n",
		*top, res.Stats.BasicInstances, res.Stats.ControlModules,
		res.Stats.DataMerges, res.Stats.PipeMerges, res.Stats.Iterations)
	fmt.Printf("control block: %s\n", acc.Control.Resources)
	fmt.Printf("data-path tree (%d leaves, depth %d):\n%s", acc.Data.NumLeaves(), acc.Data.Depth(), acc.Data)
	if *out != "" {
		data, err := acc.Encode()
		if err != nil {
			fail(err)
		}
		writeFile(*out, data)
		fmt.Printf("wrote %s\n", *out)
	}
	if *dot != "" {
		writeFile(*dot, []byte(acc.Data.DOT(*top)))
		fmt.Printf("wrote %s\n", *dot)
	}
}

func partitionCmd(fs *flag.FlagSet, args []string) {
	in := fs.String("in", "", "decomposed accelerator JSON (default: decompose the built-in design)")
	tiles := fs.Int("tiles", 8, "tile engines for the built-in design")
	n := fs.Int("n", 2, "partition iterations (deployments up to 2^n devices)")
	fs.Parse(args)

	var acc *softblock.Accelerator
	if *in != "" {
		var err error
		if acc, err = softblock.Decode(readFile(*in)); err != nil {
			fail(err)
		}
		if err := acc.Validate(); err != nil {
			fail(err)
		}
	} else {
		acc = loadAccelerator("", bwrtl.TopModule, bwrtl.ControlModules(), *tiles, true, 1).Accelerator
	}
	res, err := partition.Partition(acc.Data, *n)
	if err != nil {
		fail(err)
	}
	fmt.Printf("partition tree (%d iterations, up to %d pieces):\n", *n, res.MaxPieces())
	res.Walk(func(node *partition.Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if node.IsLeaf() {
			fmt.Printf("%s- piece %s: %d leaves, %s\n",
				indent, node.Block.ID, node.Block.NumLeaves(), node.Block.Resources)
			return
		}
		fmt.Printf("%s- %s split of %s (cut %d bits)\n", indent, node.CutKind, node.Block.ID, node.CutBits)
	})
	for k := 1; k <= res.MaxPieces(); k++ {
		fr, err := res.Frontier(k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("deployment onto %d device(s): total cut bandwidth %d bits\n", k, res.TotalCutBits(fr))
	}
}

func compileCmd(fs *flag.FlagSet, args []string) {
	tiles := fs.Int("tiles", 8, "tile engines")
	n := fs.Int("n", 2, "partition iterations")
	naive := fs.Bool("naive", false, "use the pattern-oblivious partitioner (ablation)")
	jobs := fs.Int("j", 0, "worker goroutines (0 = one per CPU, 1 = sequential; output is identical)")
	cacheDir := fs.String("cache-dir", "", "content-addressed artifact cache directory (empty = no cache); a warm hit skips the whole flow")
	fs.Parse(args)

	var store *artifactstore.Store
	if *cacheDir != "" {
		var err error
		if store, err = artifactstore.Open(*cacheDir, artifactstore.Options{}); err != nil {
			fail(err)
		}
	}
	c, _, warm, err := core.CompileAcceleratorCached(core.Options{
		Tiles: *tiles, PartitionIterations: *n, Seed: 1, PatternAware: !*naive, Parallelism: *jobs,
	}, store)
	if err != nil {
		fail(err)
	}
	from := ""
	if warm {
		from = " (from artifact cache)"
	}
	fmt.Printf("instance: %d tile engines, partitioned for up to %d devices%s\n",
		*tiles, c.Partition.MaxPieces(), from)
	fmt.Printf("decompose: %v (%d basic instances, %d data merges, %d pipeline merges)\n",
		c.DecomposeTime.Round(time.Microsecond),
		c.DecomposeStats.BasicInstances, c.DecomposeStats.DataMerges, c.DecomposeStats.PipeMerges)
	fmt.Printf("partition: %v\n", c.PartitionTime.Round(time.Microsecond))
	fmt.Printf("modelled place-and-route (all images): %v\n\n", c.HSCompileTime.Round(time.Second))

	devs := make([]string, 0, len(c.Images))
	for dev := range c.Images {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		fmt.Printf("%s mapping results:\n", dev)
		for _, pi := range c.Images[dev] {
			ctrl := ""
			if pi.WithControl {
				ctrl = " +control"
			}
			fmt.Printf("  piece %-10s lanes=%2d%s -> %d virtual blocks, %d boundary hops, %3.0f MHz, compile %v\n",
				pi.Image.PieceID, pi.Lanes, ctrl,
				pi.Image.Blocks, pi.Image.Hops, pi.Image.ClockMHz,
				pi.Image.CompileTime.Round(time.Second))
		}
	}
}

func simCmd(fs *flag.FlagSet, args []string) {
	setIdx := fs.Int("set", 7, "Table 1 workload set (1-10)")
	tasks := fs.Int("tasks", 300, "number of tasks")
	inter := fs.Duration("interarrival", 20*time.Microsecond, "mean interarrival time")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)

	comps := workload.Table1()
	if *setIdx < 1 || *setIdx > len(comps) {
		fail(fmt.Errorf("set %d out of range [1,%d]", *setIdx, len(comps)))
	}
	comp := comps[*setIdx-1]
	seq, err := workload.Generate(comp, workload.Options{NumTasks: *tasks, MeanInterarrival: *inter, Seed: *seed})
	if err != nil {
		fail(err)
	}
	s, m, l := workload.Mix(seq)
	fmt.Printf("%s (realized %.0f%%/%.0f%%/%.0f%%), %d tasks, mean interarrival %v\n\n",
		comp, 100*s, 100*m, 100*l, *tasks, *inter)

	modes := []rms.PolicyMode{rms.SameTypeOnly, rms.StaticTarget, rms.Flexible}
	base, virt, err := experiments.Systems(seq, modes...)
	if err != nil {
		fail(err)
	}
	report := func(name string, r rms.Result) {
		fmt.Printf("%-22s throughput %8.0f tasks/s  completed %d  rejected %d  avg latency %v  peak queue %d\n",
			name, r.ThroughputPerSec, r.Completed, r.Rejected, r.AvgLatency.Round(time.Microsecond), r.PeakQueue)
	}
	report("baseline (AS ISA only)", base)
	for i, mode := range modes {
		report(mode.String(), virt[i])
	}
}
