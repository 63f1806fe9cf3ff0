package main

// The metric names and units each run reports. BENCHMARK.json lists the
// same names (metrics_test.go keeps the two in step); README.md gives
// each definition and, for the per-layer metrics, the end-to-end metric
// and workload it should move.

// endToEnd is reported by every --trace 0 run, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"recompile_s", "s"},
	{"req_per_s", "req/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// cutlassGroups split kernels by Kernel.Node.Op.
var cutlassGroups = []string{"conv2d", "dense", "other"}

// perLayer is reported by every --trace 1 run, on every workload; a
// layer the workload does not reach reports 0.
var perLayer = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"tuning_sim_s", "sim_s"},
		{"infer_sim_ms", "sim_ms"},
		{"relay.optimize_ms", "ms"},
		{"relay.nodes", "count"},
		{"relay.rebatch_ms", "ms"},
		{"tunelog.load_ms", "ms"},
		{"tunelog.save_ms", "ms"},
		{"tunelog.bytes", "bytes"},
		{"tunelog.entries", "count"},
		{"codegen.compile_ms", "ms"},
		{"codegen.unique_workloads", "count"},
		{"codegen.cache_hit_ratio", "ratio"},
		{"codegen.launches", "count"},
		{"profiler.measurements", "count"},
		{"profiler.sample_programs", "count"},
		{"profiler.tuning_sim_s", "sim_s"},
	}
	for _, g := range cutlassGroups {
		ms = append(ms,
			struct{ name, unit string }{"cutlass." + g + ".host_ms", "ms"},
			struct{ name, unit string }{"cutlass." + g + ".sim_us", "sim_us"},
			struct{ name, unit string }{"cutlass." + g + ".gflops", "GFLOP"},
			struct{ name, unit string }{"cutlass." + g + ".mbytes", "MB"})
	}
	return append(ms, []struct{ name, unit string }{
		{"rt.run_ms.b1", "ms"},
		{"rt.run_ms.b8", "ms"},
		{"rt.allocs_per_run", "count"},
		{"rt.arena_mb", "MB"},
		{"rt.param_mb", "MB"},
		{"serve.enqueue_us", "us"},
		{"serve.host_wait_ms", "ms"},
		{"serve.busy_share", "ratio"},
		{"serve.batch_mean", "rows"},
		{"serve.high_p50_ms", "ms"},
		{"serve.sim_req_per_s", "req/sim_s"},
		{"serve.queue_wait_sim_ms", "sim_ms"},
		{"serve.exec_sim_ms", "sim_ms"},
		{"fleet.route_us", "us"},
		{"fleet.hedges", "count"},
		{"fleet.retries", "count"},
		{"fleet.delivered_errors", "count"},
		{"gen.late_p95_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// withUnits turns measured values into the reported metric set: every
// name in the list appears, with its unit, and a name the run did not
// measure reports 0.
func withUnits(list []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}
