package main

// decl is one metric BENCHMARK.json declares. The Go tables below are the
// single source the program prints from; bench_test.go holds
// BENCHMARK.json to them.
type decl struct {
	name, unit, better string
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	bound float64
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window, cut
// into windowSegments equal segments.
const (
	runSeconds     = 30
	windowSegments = 3
)

// maxBound is the widest bound a declared metric may carry (ISSUE 14): a
// timing that does not repeat within a tenth over ten seeds is printed as a
// diagnostic instead of being declared. setup_s is the one exception, at
// setupBound: the driver's contract requires it to be declared, so it
// cannot be demoted, and on the reference host its median moved by 11-15 %
// between two ten-seed sweeps of the same binary (README.md).
const (
	maxBound   = 0.10
	setupBound = 0.25
)

// setUps is how many times a run builds its stack from cold; setup_s is
// the median.
const setUps = 3

// endToEnd are the declared, gated metrics. The four timings ISSUE 14 also
// asked for — throughput_per_s, latency_p50_ms, latency_p95_ms,
// cpu_ms_per_op — are measured and printed by every run (window.go's
// timings) but not declared: none repeated within 0.10 on every workload
// in both ten-seed sweeps README.md records.
var endToEnd = []decl{
	{"setup_s", "s", "lower", setupBound},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced run's metrics, layer by layer (layers are the
// repo's packages). README.md says how each is measured from outside and
// which end-to-end metric it should move.
var perLayer = []decl{
	{"loadgen.self_us_per_op", "us", "lower", 0},
	{"loadgen.allocs_per_op", "count", "lower", 0},
	{"tenant.guard_us_per_op", "us", "lower", 0},
	{"tenant.guard_allocs_per_op", "count", "lower", 0},
	{"tenant.guard_us_per_op_16k_nonces", "us", "lower", 0},
	{"rms_http.codec_us_per_op", "us", "lower", 0},
	{"rms_http.allocs_per_op", "count", "lower", 0},
	{"rms_dataplane.self_us_per_op", "us", "lower", 0},
	{"rms_dataplane.allocs_per_op", "count", "lower", 0},
	{"rms_dataplane.queue_wait_us_p50", "us", "lower", 0},
	{"rms_dataplane.queue_wait_us_p95", "us", "lower", 0},
	{"rms_dataplane.batch_size_mean", "count", "higher", 0},
	{"rms_dataplane.slot_occupancy_mean", "count", "higher", 0},
	{"rms_dataplane.admit_into_running_ratio", "ratio", "higher", 0},
	{"rms_dataplane.steals_per_kop", "count", "lower", 0},
	{"kernels.run_us_per_seq", "us", "lower", 0},
	{"accel.instructions_per_op", "count", "lower", 0},
	{"accel.macs_per_op", "count", "lower", 0},
	{"accel.vector_ops_per_op", "count", "lower", 0},
	{"accel.tile_cache_hit_ratio", "ratio", "higher", 0},
	{"accel.ns_per_instruction", "ns", "lower", 0},
	{"accel.non_mvm_share", "ratio", "lower", 0},
	{"bfp.matvec_ns_per_mac", "ns", "lower", 0},
	{"bfp.matvec_us_per_op", "us", "lower", 0},
	{"bfp.quantize_ns_per_elem", "ns", "lower", 0},
	{"fp16.convert_ns_per_elem", "ns", "lower", 0},
	{"fp16.lut_ns_per_elem", "ns", "lower", 0},
	{"snapshot.capture_us", "us", "lower", 0},
	{"snapshot.restore_us", "us", "lower", 0},
	{"snapshot.encode_us", "us", "lower", 0},
	{"snapshot.decode_us", "us", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"core.compile_cold_ms", "ms", "lower", 0},
	{"artifactstore.get_warm_us", "us", "lower", 0},
	{"artifactstore.hit_ratio", "ratio", "higher", 0},
	{"rms_service.deploy_cold_ms", "ms", "lower", 0},
	{"rms_service.deploy_warm_us", "us", "lower", 0},
	{"rms_service.release_us", "us", "lower", 0},
	{"cluster.tick_us", "us", "lower", 0},
	{"cluster.heartbeat_ns", "ns", "lower", 0},
	{"cluster.defrag_us", "us", "lower", 0},
	{"cluster.migrations", "count", "lower", 0},
	{"simtest.newstack_ms", "ms", "lower", 0},
	{"simtest.deploy_us", "us", "lower", 0},
	{"simtest.serve_us", "us", "lower", 0},
	{"simtest.tick_us", "us", "lower", 0},
	{"simtest.kill_us", "us", "lower", 0},
	{"simtest.check_us", "us", "lower", 0},
	{"scenario.run_ms", "ms", "lower", 0},
	{"scenario.arrivals_per_s", "1/s", "higher", 0},
	{"scenario.sim_p99_ms", "ms", "lower", 0},
	{"scenario.sim_shed_ratio", "ratio", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"wdsl.parse_compile_ms", "ms", "lower", 0},
	{"rms_sched.fig12_set_ms", "ms", "lower", 0},
	{"rms_sched.fig12_speedup_vs_baseline", "ratio", "higher", 0},
	{"trace.closing_error_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

func findDecl(ds []decl, name string) (decl, bool) {
	for _, d := range ds {
		if d.name == name {
			return d, true
		}
	}
	return decl{}, false
}
