package main

// metricDecl declares one reported metric. BENCHMARK.json at the repo
// root repeats these declarations; catalog_test.go keeps the two equal.
type metricDecl struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what a user of the serving stack sees. A failed, refused
// or wrong answer is not a metric here: it is counted in the result's
// "failed" and makes the run incorrect.
var endToEnd = []metricDecl{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.05},
}

// perLayer is what the traced run reports, one or more metrics per
// module of the repo. Every workload prints all of them; a layer a
// workload does not exercise reports 0.
var perLayer = []metricDecl{
	{name: "client.null_rtt_us", unit: "us", better: "lower"},
	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.materialize_us", unit: "us", better: "lower"},
	{name: "server.materialize_calls_per_req", unit: "count", better: "lower"},
	{name: "fleet.self_us", unit: "us", better: "lower"},
	{name: "fleet.attempts_per_req", unit: "count", better: "lower"},
	{name: "fleet.hedges", unit: "count", better: "lower"},
	{name: "rescache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rescache.genmiss", unit: "count", better: "lower"},
	{name: "rescache.evictions", unit: "count", better: "lower"},
	{name: "rescache.roundtrip_us", unit: "us", better: "lower"},
	{name: "shard.fanout_self_us", unit: "us", better: "lower"},
	{name: "db.self_us", unit: "us", better: "lower"},
	{name: "xq.parse_us", unit: "us", better: "lower"},
	{name: "xq.eval_us", unit: "us", better: "lower"},
	{name: "exec.termjoin_us", unit: "us", better: "lower"},
	{name: "exec.topk_us", unit: "us", better: "lower"},
	{name: "exec.phrase_us", unit: "us", better: "lower"},
	{name: "exec.accesses_per_result", unit: "count", better: "lower"},
	{name: "postings.decode_ns_per_posting", unit: "ns", better: "lower"},
	{name: "postings.bytes_per_posting", unit: "B", better: "lower"},
	{name: "postings.bitmap_terms", unit: "count", better: "higher"},
	{name: "index.add_us", unit: "us", better: "lower"},
	{name: "index.compactions", unit: "count", better: "higher"},
	{name: "index.backlog_max", unit: "count", better: "lower"},
	{name: "persist.save_s", unit: "s", better: "lower"},
	{name: "persist.open_s", unit: "s", better: "lower"},
	{name: "persist.first_query_ms", unit: "ms", better: "lower"},
	{name: "persist.bytes_per_xml_byte", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.attributed_pct", unit: "%", better: "higher"},
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 10
