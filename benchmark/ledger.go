package main

// perLayer lists the ungated per-layer metrics, printed by every traced
// run of every workload. The micro rows (a layer's public call in a
// fixed-count loop) and the scenario, shard and server rows come from a
// probe suite that is the same whatever workload was asked for; the
// cpu_share, trace and scenario.cold_run_s rows describe the workload
// that was. README.md says which end-to-end metric each should move.
// The contract caps the list at 128 names: add none without removing
// one.
var perLayer = []metricDef{
	// sim: the scheduler.
	{"sim.hold_ns_p256", "ns"},
	{"sim.hold_ns_p16k", "ns"},
	{"sim.hold_ns_p1m", "ns"},
	{"sim.cancel_ns", "ns"},
	{"sim.event_bytes", "B"},
	// Shard coordination: sim.Coordinator, netsim.Mailbox, core.Pipeline.
	{"sim.coord_window_ns", "ns"},
	{"sim.inject_batch_ns", "ns"},
	{"netsim.mailbox_ns", "ns"},
	{"shard.windows", "count"},
	{"shard.serialized_max_ms", "ms"},
	{"shard.serialized_sum_ms", "ms"},
	{"shard.parallel_efficiency", "ratio"},
	{"shard.handoff_packets", "count"},
	{"shard.handoff_batches", "count"},
	{"shard.mailbox_depth_hwm", "count"},
	{"shard.pipeline_hit_ratio", "ratio"},
	{"shard.events_imbalance", "ratio"},
	// netsim: forwarding and routes.
	{"netsim.forward_ns", "ns"},
	{"netsim.forward_allocs", "count"},
	{"netsim.route_lookup_ns", "ns"},
	{"netsim.compute_routes_ms", "ms"},
	// Queue disciplines.
	{"queue.fifo_ns", "ns"},
	{"aqm.droptail_ns", "ns"},
	{"aqm.red_ns", "ns"},
	{"fq.drr_ns", "ns"},
	{"fq.hdrr_ns", "ns"},
	{"core.nfqueue_regular_ns", "ns"},
	{"core.nfqueue_request_ns", "ns"},
	// Crypto.
	{"cmac.sum16_ns", "ns"},
	{"cmac.sum64_ns", "ns"},
	{"cmac.verify_batch32_ns", "ns"},
	{"feedback.stamp_nop_ns", "ns"},
	{"feedback.stamp_decr_ns", "ns"},
	{"feedback.validate_incr_ns", "ns"},
	{"passport.stamp_ns", "ns"},
	{"passport.verify_ns", "ns"},
	{"passport.check_ns", "ns"},
	// Access policing.
	{"core.access_regular_ns", "ns"},
	{"core.access_request_ns", "ns"},
	{"core.access_request_allocs", "count"},
	{"core.shim_egress_ns", "ns"},
	{"ratelimit.leaky_submit_ns", "ns"},
	{"ratelimit.request_admit_ns", "ns"},
	{"ratelimit.aimd_adjust_ns", "ns"},
	// Wire codec (Figure 7; the simulator never runs it).
	{"header.encode_ns", "ns"},
	{"header.decode_ns", "ns"},
	{"header.access_stamp_request_ns", "ns"},
	{"header.bottleneck_stamp_ns", "ns"},
	// topo and the root scenario layer.
	{"topo.build_large_ms", "ms"},
	{"topo.partition_large_ms", "ms"},
	{"scenario.fig8_run_s", "s"},
	{"scenario.fig9_run_s", "s"},
	{"scenario.cold_run_s", "s"},
	{"scenario.segment_ns_per_event_p50", "ns"},
	{"scenario.segment_ns_per_event_p95", "ns"},
	{"scenario.advance_overhead_pct", "%"},
	{"scenario.collect_ms", "ms"},
	// server.
	{"server.spec_decode_us", "us"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.sse_first_sample_ms", "ms"},
	{"server.result_fetch_ms", "ms"},
	{"server.metrics_scrape_ms", "ms"},
	{"server.job_p50_ms", "ms"},
	{"server.job_p99_ms", "ms"},
	{"server.job_p50_ms.scenario", "ms"},
	{"server.job_p50_ms.timeline", "ms"},
	{"server.job_p50_ms.sweep", "ms"},
	{"server.rejected", "count"},
	// obs, exp, search: information.
	{"obs.counters_snapshot_us", "us"},
	{"obs.trace_flows4_overhead_pct", "%"},
	{"exp.fig8_tiny_s", "s"},
	{"exp.fig9a_tiny_s", "s"},
	{"search.candidates_per_s", "1/s"},
	// CPU share of the asked workload, by leaf frame of a CPU profile.
	{"cpu_share.sim", "%"},
	{"cpu_share.coord", "%"},
	{"cpu_share.netsim", "%"},
	{"cpu_share.queues", "%"},
	{"cpu_share.crypto", "%"},
	{"cpu_share.access", "%"},
	{"cpu_share.transport", "%"},
	{"cpu_share.runtime", "%"},
	{"cpu_share.other", "%"},
	// The traced run itself, and the host it ran on.
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.harness_self_ms", "ms"},
	{"host.calib_ms", "ms"},
	{"host.calib_spread_pct", "%"},
}
