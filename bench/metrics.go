package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (metrics_test.go keeps the two equal);
// README.md says how each is measured.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a channel source and its subscribers feel. Every workload
// reports every one: on fwd-* workloads rate_per_s is fwd_pps and lat_p50_us
// is owd_p50_us; on ctl-join-churn-2hop they are churn_events_per_s and
// join_p50_us. The upper percentiles do not repeat on a shared two-core box
// and are report-only (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
}

// perLayer comes from the traced run. A metric that does not apply to a
// workload (the loss-free ladder on the control workload, join spans on the
// forwarding ones) is printed as 0 there.
var perLayer = []metricDef{
	{"gen.ceiling_pps", "1/s", "higher"},
	{"gen.late_p99_us", "us", "lower"},
	{"loop.owd_p50_us", "us", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.srh_pop_ns", "ns", "lower"},
	{"wire.walkcounts_ns_per_count", "ns/count", "lower"},
	{"wire.allocs_per_op", "allocs/op", "lower"},
	{"fib.lookup_ns", "ns", "lower"},
	{"fib.set_ns", "ns", "lower"},
	{"fib.lookups", "count", "lower"},
	{"fib.hit_ratio", "ratio", "higher"},
	{"dp.handle_ns", "ns", "lower"},
	{"dp.replicate_ns_per_copy", "ns/copy", "lower"},
	{"dp.allocs_per_pkt", "allocs/pkt", "lower"},
	{"dp.rx_batch_mean", "count", "higher"},
	{"dp.tx_burst_mean", "count", "higher"},
	{"dp.drop_ratio", "ratio", "lower"},
	{"dp.ingress_lost", "count", "lower"},
	{"dp.router_added_us", "us", "lower"},
	{"dp.residual_us", "us", "lower"},
	{"rn.sub_call_us", "us", "lower"},
	{"rn.edge_install_us", "us", "lower"},
	{"rn.up_prop_us", "us", "lower"},
	{"rn.first_pkt_us", "us", "lower"},
	{"rn.coalesce_ratio", "ratio", "lower"},
	{"rn.up_segments", "count", "lower"},
	{"rn.up_drops", "count", "lower"},
	{"ctl.stream_owd_p50_us", "us", "lower"},
	{"ctl.stream_owd_p99_us", "us", "lower"},
	{"proc.cpu_us_per_pkt", "us/pkt", "lower"},
	{"lossfree.search_pps", "1/s", "higher"},
	{"lossfree.confirmed", "count", "higher"},
	{"lossfree.loss_at_1.5x", "ratio", "lower"},
	{"lossfree.loss_at_2x", "ratio", "lower"},
	{"trace.rate_per_s", "1/s", "higher"},
	{"trace.lat_p50_us", "us", "lower"},
	{"trace.lat_p99_us", "us", "lower"},
	{"trace.lat_p999_us", "us", "lower"},
	{"trace.samples", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}
