package main

// metricDef is one reported metric. Moves names the end-to-end metric and
// workload a change in a per-layer metric should show up in.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics a run with --trace 0 reports, per workload.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

const (
	onCollapsed = "ops_per_s on collapsed-mix"
	onPerNode   = "ops_per_s on pernode-graph"
	onFabric    = "ops_per_s on node-fabric"
	onEvery     = "ops_per_s on every workload"
)

// perLayer are the metrics a run with --trace 1 reports.
var perLayer = []metricDef{
	{"job.compile_us", "us", "lower", "setup_s on every workload; op_p50_ms on serve-mixed"},
	{"job.overhead_frac", "frac", "lower", onCollapsed},
	{"par.trials_efficiency", "frac", "higher", onCollapsed + ", pernode-graph"},
	{"dispatch.auto_regret.jmaj5", "ratio", "lower", "ops_per_s, op_tail_ms on collapsed-mix"},
	{"dispatch.auto_regret.3maj16", "ratio", "lower", "ops_per_s, op_tail_ms on collapsed-mix"},
	{"dispatch.auto_regret.2c", "ratio", "lower", "ops_per_s, op_tail_ms on collapsed-mix"},
	{"dispatch.auto_regret.usd", "ratio", "lower", "ops_per_s, op_tail_ms on collapsed-mix"},
	{"occupancy.ns_per_tick.2c", "ns", "lower", onCollapsed},
	{"occupancy.ns_per_tick.usd", "ns", "lower", onCollapsed},
	{"occupancy.ns_per_tick.3maj16", "ns", "lower", onCollapsed},
	{"occupancy.ns_per_tick.jmaj5", "ns", "lower", onCollapsed},
	{"occupancy.ticks_per_op.2c", "count", "lower", "none (work check)"},
	{"occupancy.ticks_per_op.usd", "count", "lower", "none (work check)"},
	{"occupancy.ticks_per_op.3maj16", "count", "lower", "none (work check)"},
	{"occupancy.ticks_per_op.jmaj5", "count", "lower", "none (work check)"},
	{"lumped.ns_per_tick", "ns", "lower", onCollapsed},
	{"leap.ms_per_op", "ms", "lower", onCollapsed},
	{"pernode.ns_per_tick.clique", "ns", "lower", onPerNode},
	{"pernode.ns_per_tick.rr8", "ns", "lower", onPerNode},
	{"graph.build_s", "s", "lower", "setup_s, max_rss_mb on pernode-graph"},
	{"graph.bytes_per_node", "B", "lower", "setup_s, max_rss_mb on pernode-graph"},
	{"graph.sample_ns", "ns", "lower", "pernode.ns_per_tick.rr8, then " + onPerNode},
	{"sched.ns_per_tick", "ns", "lower", "pernode.ns_per_tick.*, core.ns_per_tick, then " + onPerNode},
	{"core.ns_per_tick", "ns", "lower", onPerNode},
	{"syncsim.ns_per_node_round", "ns", "lower", onPerNode},
	{"service.submit_ms.miss", "ms", "lower", "op_p50_ms on serve-mixed"},
	{"service.submit_ms.hit", "ms", "lower", "op_p50_ms on serve-mixed"},
	{"service.engine_share", "frac", "higher", "op_p50_ms on serve-mixed"},
	{"service.daemon_p50_ms", "ms", "lower", "op_tail_ms on serve-mixed"},
	{"service.polls_per_op", "count", "lower", "op_p50_ms on serve-mixed"},
	{"service.cache_hit_rate", "frac", "higher", "op_p50_ms on serve-mixed"},
	{"service.rejected", "count", "lower", "error_rate on serve-mixed"},
	{"node.ns_per_message", "ns", "lower", onFabric},
	{"node.messages_per_op", "count", "lower", onFabric},
	{"node.tick_overhead", "ratio", "lower", onFabric},
	{"node.halt_tail", "ptime", "lower", "op_p50_ms on node-fabric"},
	{"runtime.gc_cpu_frac", "frac", "lower", onEvery},
	{"runtime.alloc_bytes_per_op", "B", "lower", onEvery},
	{"runtime.cpu_util", "frac", "higher", onEvery},
	{"trace.overhead_frac", "frac", "lower", "none (cost of the traced run's spans)"},
}
