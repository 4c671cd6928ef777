package main

// The metric and workload sets. BENCHMARK.json at the repository root
// carries the same names (bench_test.go checks that the two agree);
// README.md says what each one means and which end-to-end metric each
// per-layer metric is expected to move.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadNames = []string{"rh_net", "talu_batch", "thin_net", "text_budget_churn"}

// endToEnd is reported with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"auctions_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_auction", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"ok_share", "ratio", "higher", 0.001},
}

// perLayer is reported with --trace 1, on every workload; a layer the
// workload does not use reports 0.
var perLayer = []metricDef{
	{"client.call_us_p50", "us", "lower", 0},
	{"server.transport_self_us", "us", "lower", 0},
	{"wire.codec_us", "us", "lower", 0},
	{"wire.bytes_per_auction", "B", "lower", 0},
	{"server.submitted", "count", "higher", 0},
	{"server.served", "count", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"process.ctx_switches_per_auction", "count", "lower", 0},
	{"process.sys_cpu_share", "ratio", "lower", 0},
	{"stream.call_us_p50", "us", "lower", 0},
	{"stream.self_us", "us", "lower", 0},
	{"stream.queue_wait_us_p50", "us", "lower", 0},
	{"stream.queue_wait_us_p99", "us", "lower", 0},
	{"stream.submitted", "count", "higher", 0},
	{"stream.served", "count", "higher", 0},
	{"stream.shed", "count", "lower", 0},
	{"stream.unrouted", "count", "lower", 0},
	{"stream.overmatched", "count", "lower", 0},
	{"stream.fences", "count", "higher", 0},
	{"stream.churn_stall_ms_p50", "ms", "lower", 0},
	{"engine.call_us_p50", "us", "lower", 0},
	{"engine.self_us", "us", "lower", 0},
	{"engine.batch_ms_p50", "ms", "lower", 0},
	{"engine.market_call_us_p50", "us", "lower", 0},
	{"engine.market_solve_us_p50", "us", "lower", 0},
	{"engine.market_price_us_p50", "us", "lower", 0},
	{"engine.market_charge_us_p50", "us", "lower", 0},
	{"engine.market_after_us_p50", "us", "lower", 0},
	{"engine.market_rest_us", "us", "lower", 0},
	{"engine.program_evals_per_auction", "count", "lower", 0},
	{"engine.build_ms", "ms", "lower", 0},
	{"engine.bytes_per_advertiser", "B", "lower", 0},
	{"process.heap_mb_after_setup", "MB", "lower", 0},
	{"matching.select_us_p50", "us", "lower", 0},
	{"topk.select_into_us_p50", "us", "lower", 0},
	{"matching.assign_us_p50", "us", "lower", 0},
	{"matching.candidate_union", "count", "lower", 0},
	{"ta.topk_us_p50", "us", "lower", 0},
	{"ta.sorted_accesses", "count", "lower", 0},
	{"ta.random_accesses", "count", "lower", 0},
	{"ta.seen_share", "ratio", "lower", 0},
	{"broadmatch.route_us_p50", "us", "lower", 0},
	{"kwmatch.score_us_p50", "us", "lower", 0},
	{"broadmatch.matched_per_query", "count", "higher", 0},
	{"broadmatch.unrouted_share", "ratio", "lower", 0},
	{"broadmatch.overmatched_per_query", "count", "lower", 0},
	{"budget.market_delta_us", "us", "lower", 0},
	{"budget.denied_per_auction", "count", "lower", 0},
	{"budget.exhausted_share", "ratio", "lower", 0},
	{"journal.append_us_p50", "us", "lower", 0},
	{"journal.records", "count", "lower", 0},
	{"journal.bytes_per_auction", "B", "lower", 0},
	{"journal.stale_dropped", "count", "lower", 0},
	{"process.allocs_per_auction", "count", "lower", 0},
	{"process.alloc_bytes_per_auction", "B", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"obs.trace_overhead_share", "ratio", "lower", 0},
	{"loadgen.offered_per_s", "1/s", "higher", 0},
	{"loadgen.served_per_s", "1/s", "higher", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.latency_p99_us", "us", "lower", 0},
}

// value is one reported number. Samples is the count of observations
// behind a percentile (0 for counts and ratios).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]value

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// put stores a declared metric; an undeclared name is a harness bug.
func (m metricSet) put(defs []metricDef, name string, v float64, samples int) {
	m[name] = value{Value: v, Unit: unitOf(defs, name), Samples: samples}
}

// complete fills every declared metric the workload did not produce
// with 0, so every run reports the full declared set.
func (m metricSet) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
}
