// mlv is the framework's client in one binary: the offline toolchain
// (§2.2), the system-level simulator (§4.4), the paper's evaluation, the
// workload-DSL scenario runner, and the signing and operator clients of a
// running mlv-serve (§2.3).
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
//	mlv repro                            # every table and figure, paper values
//	mlv repro -only table4 -tasks 500    # side by side (experiments.All)
//	mlv scenario run -out report.json testdata/scenarios/diurnal-1000.mlw
//	mlv scenario check testdata/scenarios/smoke.mlw
//	mlv sign -tenant alice -key alice-secret -path /deploy -body "$BODY"
//	mlv cluster [-addr host:port] [-tenant id -key secret] devices
//	mlv cluster ... drain|undrain|kill|heartbeat <device-id>
//	mlv cluster ... status|rebalance|defrag
//	mlv cluster ... preempt <lease-id> [slots]
//
// `mlv <subcommand> -h` lists a subcommand's flags. A usage error exits 2,
// a failure (or a scenario's invariant violation) exits 1.
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/cluster"
	"mlvfpga/internal/core"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/experiments"
	"mlvfpga/internal/isa"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/scenario"
	"mlvfpga/internal/softblock"
	"mlvfpga/internal/tenant"
	"mlvfpga/internal/wdsl"
	"mlvfpga/internal/workload"
)

func main() {
	run := map[string]func(*flag.FlagSet, []string){
		"asm": asmCmd, "decompose": decomposeCmd, "partition": partitionCmd, "compile": compileCmd, "sim": simCmd,
		"repro": reproCmd, "scenario": scenarioCmd, "sign": signCmd, "cluster": clusterCmd,
	}
	if len(os.Args) < 2 || run[os.Args[1]] == nil {
		usage("usage: mlv asm|decompose|partition|compile|sim|repro|scenario|sign|cluster [flags]   (-h lists a subcommand's flags)")
	}
	run[os.Args[1]](flag.NewFlagSet("mlv "+os.Args[1], flag.ExitOnError), os.Args[2:])
}

// fail reports a subcommand's error and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "mlv %s: %v\n", os.Args[1], err)
	os.Exit(1)
}

// usage prints text and exits 2.
func usage(text string) {
	fmt.Fprintln(os.Stderr, text)
	os.Exit(2)
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
		Tiles: *tiles, PartitionIterations: *n, Seed: 1, PatternAware: !*naive,
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

func reproCmd(fs *flag.FlagSet, args []string) {
	all := experiments.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	only := fs.String("only", "", "run a single experiment ("+strings.Join(names, "|")+")")
	tasks := fs.Int("tasks", 0, "override the Fig. 12 workload size")
	fs.Parse(args)
	ran := false
	for _, e := range all {
		if *only != "" && *only != e.Name {
			continue
		}
		out, err := e.Run(*tasks)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
		ran = true
	}
	if !ran {
		usage(fmt.Sprintf("mlv repro: unknown experiment %q (want %s)", *only, strings.Join(names, "|")))
	}
}

// scenarioCmd runs a workload-DSL spec (.mlw) on the deterministic
// simulation stack: its models compile to AS-ISA kernels, its fleet boots
// as a simulated cluster, and arrivals and fault storms play out in
// virtual time with every simtest invariant family checked per event.
// run prints the SLO report (and writes it as JSON with -out); check
// parses, compiles and builds every kernel without running the scenario.
func scenarioCmd(fs *flag.FlagSet, args []string) {
	const use = "usage: mlv scenario run [-out report.json] spec.mlw\n       mlv scenario check spec.mlw"
	if len(args) == 0 || (args[0] != "run" && args[0] != "check") {
		usage(use)
	}
	fs.Init("mlv scenario "+args[0], flag.ExitOnError)
	out := ""
	if args[0] == "run" {
		fs.StringVar(&out, "out", "", "write the SLO report JSON here (default: stdout only)")
	}
	fs.Parse(args[1:])
	if fs.NArg() != 1 {
		usage(use)
	}
	path := fs.Arg(0)
	f, err := wdsl.Parse(string(readFile(path)))
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	spec, err := wdsl.Compile(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	if args[0] == "check" {
		seed := int64(1)
		if spec.Scenario != nil {
			seed = spec.Scenario.Seed
		}
		counts, err := wdsl.BuildKernels(spec, seed)
		if err != nil {
			fail(err)
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s: %d layer(s), instructions %v\n", n, len(counts[n]), counts[n])
		}
		fmt.Println("OK")
		return
	}

	rep, err := scenario.Run(spec, filepath.Base(path))
	if err != nil {
		fail(err)
	}
	if out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		writeFile(out, append(blob, '\n'))
		// Validate what was written: the artifact on disk is the
		// contract, not the in-memory struct.
		rep = new(scenario.Report)
		if err := json.Unmarshal(readFile(out), rep); err != nil {
			fail(fmt.Errorf("re-reading %s: %w", out, err))
		}
	}
	if err := rep.Validate(); err != nil {
		fail(fmt.Errorf("report failed self-validation: %w", err))
	}

	fmt.Printf("%s: seed %d, %d devices, %s, %d leases\n",
		rep.Spec, rep.Seed, rep.Devices, rep.Duration, rep.Leases)
	fmt.Printf("  arrivals %d  sampled-on-stack %d  trace %s\n",
		rep.Arrivals, rep.Sampled, rep.TraceHash)
	printSLOs := func(label string, m map[string]*scenario.SLO) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := m[k]
			fmt.Printf("  %s %-10s req %6d  served %6d  shed %5d (%.2f%%)  p50 %8.3fms  p99 %8.3fms\n",
				label, k, s.Requests, s.Served, s.Shed, 100*s.ShedRate, s.P50Ms, s.P99Ms)
		}
	}
	printSLOs("tenant", rep.Tenants)
	printSLOs("class ", rep.Classes)
	green := 0
	for _, v := range rep.Invariants {
		if v.Status == "green" {
			green++
		}
	}
	fmt.Printf("  invariants: %d/%d green\n", green, len(rep.Invariants))
	if !rep.Valid {
		fail(fmt.Errorf("INVARIANT VIOLATION: %s", rep.Violation))
	}
	fmt.Println("  PASS")
}

// nonce is a fresh random request nonce for tenant signing.
func nonce() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		fail(err)
	}
	return hex.EncodeToString(b)
}

// signCmd prints the headers a tenant signs a mutating mlv-serve call with
// (internal/tenant has the scheme): curl -H arguments, so a signed request
// is one command substitution away, or "Name: value" lines.
func signCmd(fs *flag.FlagSet, args []string) {
	id := fs.String("tenant", "", "tenant id")
	key := fs.String("key", "", "tenant HMAC key")
	method := fs.String("method", "POST", "HTTP method to sign")
	path := fs.String("path", "", "request path to sign (e.g. /deploy)")
	body := fs.String("body", "", "request body to sign (use -stdin to read it from stdin)")
	stdin := fs.Bool("stdin", false, "read the request body from stdin")
	format := fs.String("format", "curl", `output format: "curl" (-H arguments) or "headers" (Name: value lines)`)
	fs.Parse(args)
	if *id == "" || *key == "" || *path == "" {
		usage("usage: mlv sign -tenant id -key secret -method POST -path /deploy [-body JSON | -stdin]")
	}
	if *format != "curl" && *format != "headers" {
		usage(fmt.Sprintf("mlv sign: unknown format %q", *format))
	}
	payload := []byte(*body)
	if *stdin {
		var err error
		if payload, err = io.ReadAll(os.Stdin); err != nil {
			fail(fmt.Errorf("reading stdin: %w", err))
		}
	}
	n, ts := nonce(), time.Now().Unix()
	headers := [][2]string{
		{tenant.HeaderTenant, *id},
		{tenant.HeaderTimestamp, strconv.FormatInt(ts, 10)},
		{tenant.HeaderNonce, n},
		{tenant.HeaderSignature, tenant.Sign([]byte(*key), *method, *path, payload, ts, n)},
	}
	for _, h := range headers {
		if *format == "curl" {
			fmt.Printf("-H %s:%s ", h[0], h[1])
		} else {
			fmt.Printf("%s: %s\n", h[0], h[1])
		}
	}
	if *format == "curl" {
		fmt.Println()
	}
}

// clusterCmd is the operator client of a running mlv-serve's /cluster
// surface: inspect device health, drain or revive devices, inject
// failures, force a control pass, defragment, preempt. Against a server
// started with -tenants, the mutations need an admin tenant's -tenant/-key;
// reads work without credentials.
func clusterCmd(fs *flag.FlagSet, args []string) {
	const use = "usage: mlv cluster [-addr host:port] [-tenant id -key secret] <devices|drain|undrain|kill|heartbeat|rebalance|defrag|preempt|status> [args]"
	addr := fs.String("addr", "localhost:8080", "mlv-serve address")
	tenantID := fs.String("tenant", "", "tenant id for signed requests (admin required for mutations)")
	tenantKey := fs.String("key", "", "tenant HMAC key for signed requests")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, use); fs.PrintDefaults() }
	fs.Parse(args)
	if fs.NArg() < 1 {
		usage(use)
	}
	if (*tenantID == "") != (*tenantKey == "") {
		fail(fmt.Errorf("-tenant and -key must be given together"))
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// call GETs path (body nil) or POSTs body to it, signed when
	// credentials are given, and decodes a 2xx reply into v unless v is nil.
	call := func(path string, body, v any) {
		method, b, err := http.MethodGet, []byte(nil), error(nil)
		if body != nil {
			method = http.MethodPost
			if b, err = json.Marshal(body); err != nil {
				fail(err)
			}
		}
		req, err := http.NewRequest(method, "http://"+*addr+path, bytes.NewReader(b))
		if err != nil {
			fail(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
			if *tenantID != "" {
				tenant.SignRequest(req, *tenantID, []byte(*tenantKey), b, time.Now(), nonce())
			}
		}
		resp, err := client.Do(req)
		if err != nil {
			fail(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			fail(fmt.Errorf("reading %s: %w", path, err))
		}
		if resp.StatusCode >= 300 {
			fail(fmt.Errorf("%s: %s %s", path, resp.Status, bytes.TrimSpace(out)))
		}
		if v != nil {
			if err := json.Unmarshal(out, v); err != nil {
				fail(fmt.Errorf("decoding %s: %w", path, err))
			}
		}
	}
	intArg := func(i int, what string) int {
		n, err := strconv.Atoi(fs.Arg(i))
		if err != nil {
			fail(fmt.Errorf("bad %s %q", what, fs.Arg(i)))
		}
		return n
	}
	deviceArg := func() int {
		if fs.NArg() != 2 {
			usage(use)
		}
		return intArg(1, "device id")
	}

	switch fs.Arg(0) {
	case "devices":
		var devs []cluster.DeviceInfo
		call("/cluster/devices", nil, &devs)
		fmt.Printf("%-4s %-10s %-7s %-9s %s\n", "ID", "TYPE", "BLOCKS", "STATE", "LAST BEAT")
		for _, d := range devs {
			fmt.Printf("%-4d %-10s %-7d %-9s %s ago\n", d.ID, d.Type, d.Blocks, d.State, d.SinceBeat.Round(time.Millisecond))
		}
	case "drain", "undrain", "kill", "heartbeat":
		path, body := "/cluster/"+fs.Arg(0), map[string]any{"id": deviceArg()}
		if fs.Arg(0) == "undrain" {
			path, body["undrain"] = "/cluster/drain", true
		}
		call(path, body, nil)
		fmt.Println("ok")
	case "rebalance":
		var rep cluster.TickReport
		call("/cluster/rebalance", struct{}{}, &rep)
		fmt.Printf("tick %d: %d transitions, %d actions, %d deferred\n",
			rep.Tick, len(rep.Transitions), len(rep.Events), rep.Deferred)
		for _, tr := range rep.Transitions {
			fmt.Printf("  device %d: %s -> %s\n", tr.Device, tr.From, tr.To)
		}
		for _, ev := range rep.Events {
			line := fmt.Sprintf("  lease %d: %s %d -> %d", ev.Lease, ev.Kind, ev.FromDepth, ev.ToDepth)
			if ev.Err != "" {
				line += " FAILED: " + ev.Err
			}
			fmt.Println(line)
		}
	case "defrag":
		var rep cluster.DefragReport
		call("/cluster/defrag", struct{}{}, &rep)
		fmt.Printf("defrag %d: stranded blocks %d -> %d, empty devices %d -> %d, %d moves, %d skipped\n",
			rep.Run, rep.ScoreBefore, rep.ScoreAfter, rep.EmptyBefore, rep.EmptyAfter, len(rep.Moves), rep.Skipped)
		for _, ev := range rep.Moves {
			line := fmt.Sprintf("  lease %d: %s at depth %d", ev.Lease, ev.Kind, ev.ToDepth)
			if ev.Err != "" {
				line += " FAILED: " + ev.Err
			}
			fmt.Println(line)
		}
	case "preempt":
		if fs.NArg() < 2 || fs.NArg() > 3 {
			usage(use)
		}
		leaseID, slots := intArg(1, "lease id"), 0 // 0: the server default, the lease's full batch width
		if fs.NArg() == 3 {
			slots = intArg(2, "slot count")
		}
		var rep struct {
			Requested int `json:"requested"`
		}
		call("/preempt", map[string]any{"id": leaseID, "slots": slots}, &rep)
		fmt.Printf("requested %d evictions from lease %d; busy machines act on them at their next round (watch mlv_preempt_evictions)\n", rep.Requested, leaseID)
	case "status":
		var st rms.ClusterStatus
		call("/status", nil, &st)
		var devs []cluster.DeviceInfo
		call("/cluster/devices", nil, &devs)
		states := map[int]cluster.State{}
		for _, d := range devs {
			states[d.ID] = d.State
		}
		fmt.Printf("utilization %.1f%%, %d active leases\n", st.Utilization*100, st.ActiveLeases)
		for _, f := range st.FPGAs {
			fmt.Printf("  fpga %d (%s): %d/%d blocks free, %s\n",
				f.ID, f.Device, f.FreeBlocks, f.TotalBlocks, states[f.ID])
		}
	default:
		usage(use)
	}
}
