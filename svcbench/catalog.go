package main

// metricDef declares one reported metric. The lists below must agree with
// BENCHMARK.json at the repository root (the self-test checks it): the
// end-to-end metrics are printed by untraced runs, the per-layer metrics
// by traced runs, and nothing else is printed under "metrics".
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the client-observed metrics of an untraced run.
var endToEnd = []metricDef{
	{"shots_per_s", "shots/s", "higher", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_tail_ms", "ms", "lower", 0.25},
	{"first_shot_p50_ms", "ms", "lower", 0.25},
	{"first_shot_tail_ms", "ms", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.01},
	{"cpu_ms_per_kshot", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_feedback_ns", "ns", "lower", 0.10},
	{"sim_pred_accuracy", "ratio", "higher", 0.10},
}

// perLayer are the layer metrics of a traced run. Metrics of a layer a
// workload does not exercise (store and cluster on a single node) read 0.
var perLayer = []metricDef{
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.first_shot_gap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.stream_ms_per_kshot", Unit: "ms", Better: "lower"},
	{Name: "server.admission_429", Unit: "count", Better: "lower"},
	{Name: "artery.new_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "artery.new_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "artery.new_calls_per_job", Unit: "count", Better: "lower"},
	{Name: "artery.calib_key_repeat_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.run_ms_per_kshot", Unit: "ms", Better: "lower"},
	{Name: "core.run_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.readouts_per_shot", Unit: "count", Better: "lower"},
	{Name: "readout.synth_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "readout.classify_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "predict.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "controller.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "quantum.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "stabilizer.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "api.encode_us_per_event", Unit: "us", Better: "lower"},
	{Name: "api.event_bytes", Unit: "bytes", Better: "lower"},
	{Name: "api.merge_us_per_event", Unit: "us", Better: "lower"},
	{Name: "client.decode_us_per_event", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "store.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.records_per_shot", Unit: "count", Better: "lower"},
	{Name: "store.fsyncs_per_job", Unit: "count", Better: "lower"},
	{Name: "store.bytes_per_shot", Unit: "bytes", Better: "lower"},
	{Name: "cluster.shard_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.dispatches_per_shard", Unit: "count", Better: "lower"},
	{Name: "cluster.shards_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_win_frac", Unit: "ratio", Better: "higher"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_mb_per_kshot", Unit: "MB", Better: "lower"},
	{Name: "net.http_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
