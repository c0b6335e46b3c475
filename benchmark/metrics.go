package main

// decl declares one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type decl struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees, in host time
// and memory, reported as medians over a run's passing replays.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"replay_s", "s"},
	{"allocs_m", "M"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named <module>.<metric>.
// Units: host time in s/ms/us/ns, simulated time in sim_ms, shares of
// the traced replay's wall time in %.
var perLayer = []decl{
	{"engine.oracle_keys", "count"},
	{"engine.oracle_miss_us", "us"},
	{"engine.oracle_hit_ns", "ns"},
	{"engine.oracle_fill_s", "s"},
	{"engine.run_ms", "ms"},
	{"sim.calendar_op_ns", "ns"},
	{"serve.iterations", "count"},
	{"serve.mean_batch", "req"},
	{"serve.step_pct", "%"},
	{"serve.queue_wait_ms_p50", "sim_ms"},
	{"serve.queue_wait_ms_p99", "sim_ms"},
	{"serve.generate_ms", "ms"},
	{"cluster.picks", "count"},
	{"cluster.pick_ns", "ns"},
	{"cluster.route_pct", "%"},
	{"cluster.joins", "count"},
	{"cluster.crashes", "count"},
	{"cluster.requeued", "count"},
	{"cluster.lifecycle_pct", "%"},
	{"cluster.decisions", "count"},
	{"kvcache.lookups", "count"},
	{"kvcache.hit_rate", "ratio"},
	{"kvcache.evictions", "count"},
	{"kvcache.spills", "count"},
	{"kvcache.restored", "count"},
	{"kvcache.peek_ns", "ns"},
	{"kvcache.acquire_ns", "ns"},
	{"kvcache.release_ns", "ns"},
	{"kvcache.block_pct", "%"},
	{"disagg.transfers", "count"},
	{"disagg.kv_gb", "GB"},
	{"disagg.stall_ms_mean", "sim_ms"},
	{"disagg.transfer_pct", "%"},
	{"metrics.windows", "count"},
	{"metrics.observe_ns", "ns"},
	{"metrics.record_ns", "ns"},
	{"metrics.sample_pct", "%"},
	{"core.analyze_ms", "ms"},
	{"fusion.recommend_ms", "ms"},
	{"bench.table1_ms", "ms"},
	{"bench.table3_ms", "ms"},
	{"bench.table4_ms", "ms"},
	{"bench.table5_ms", "ms"},
	{"bench.fig3_ms", "ms"},
	{"bench.fig5_ms", "ms"},
	{"bench.fig6_ms", "ms"},
	{"bench.fig7_ms", "ms"},
	{"bench.fig8_ms", "ms"},
	{"bench.fig9_ms", "ms"},
	{"bench.fig10_ms", "ms"},
	{"bench.fig11_ms", "ms"},
	{"spec.validate_us", "us"},
	{"spec.events", "count"},
	{"trace.overhead_pct", "%"},
}
