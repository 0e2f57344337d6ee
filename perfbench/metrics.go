package main

// decl declares one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of RFF sees. Every workload reports
// every one; README.md gives each workload's operation and round.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"execs_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"allocs_per_exec", "count"},
	{"bytes_per_exec", "B"},
	{"peak_heap_mb", "MB"},
	{"bugs_found", "count"},
}

// perLayer are the traced run's metrics, named after the module that
// does the work. A workload reports 0 for a layer it never calls.
var perLayer = []decl{
	// campaign: Algorithm 1 rebuilt from core's exported pieces.
	{"exec.self_us_per_exec", "us"},
	{"exec.self_ns_per_step", "ns"},
	{"exec.steps_per_exec", "count"},
	{"exec.allocs_per_exec", "count"},
	{"exec.bytes_per_exec", "B"},
	{"exec.truncated_ratio", "ratio"},
	{"core.proactive.pick_ns", "ns"},
	{"core.proactive.executed_ns", "ns"},
	{"core.proactive.picks_per_exec", "count"},
	{"core.proactive.satisfied_ratio", "ratio"},
	{"core.proactive.rejected_ratio", "ratio"},
	{"core.mutate_ns", "ns"},
	{"core.observe_ns", "ns"},
	{"core.pool_add_ns", "ns"},
	{"core.energy_ns", "ns"},
	{"core.corpus_ns", "ns"},
	{"core.corpus_size", "count"},
	{"core.pool_size", "count"},
	{"core.interesting_ratio", "ratio"},
	{"core.skip_ratio", "ratio"},
	{"core.rf_pairs", "count"},
	{"bench.span_coverage_pct", "%"},
	// matrix: the fleet behind a timing telemetry sink.
	{"fleet.utilization_pct", "%"},
	{"fleet.idle_s", "s"},
	{"fleet.cell_ms_p50", "ms"},
	{"fleet.cell_ms_tail", "ms"},
	{"core.busy_s", "s"},
	{"sched.pos.busy_s", "s"},
	{"sched.pct.busy_s", "s"},
	{"qlearn.busy_s", "s"},
	{"systematic.genmc.busy_s", "s"},
	{"systematic.period.busy_s", "s"},
	{"telemetry.sink_ns_per_call", "ns"},
	{"telemetry.calls_per_exec", "count"},
	// conformance: the generator and the explorer called directly.
	{"progen.generate_us", "us"},
	{"systematic.explore_s", "s"},
	{"systematic.ns_per_exec", "ns"},
	{"systematic.execs_per_program", "count"},
	{"systematic.skipped_exec_share", "ratio"},
	{"conformance.tools_busy_s", "s"},
	{"conformance.replays", "count"},
	{"conformance.rf_coverage_pct", "%"},
	// service: job timestamps, the store and the sharded runner.
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"service.report_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cached_p50_ms", "ms"},
	{"service.cached_tail_ms", "ms"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.blob_kb", "kB"},
	{"shard.merge_ms", "ms"},
	{"shard.utilization_pct", "%"},
	{"shard.steals_per_epoch", "count"},
	{"telemetry.events_per_job", "count"},
	// every workload
	{"bench.trace_overhead_pct", "%"},
}
