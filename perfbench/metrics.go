package main

// metricDef names a metric and its unit. The tables below are the
// benchmark's metric vocabulary; BENCHMARK.json at the root of the
// repository lists the same names (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every timed run
// reports every one of them, whatever its workload; README.md ("End-to-end
// metrics") says what each means on each workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"serve_rps", "req/s"},
	{"plan_sps", "samples/s"},
	{"peak_rss_mb", "MB"},
}

// searchCells are the cold-search cells, by the suffix their per-cell
// metrics carry.
var searchCells = []string{"mmt16", "candle16", "candle8-hetero"}

// perLayerMetrics are reported by every traced run; a layer the workload
// does not call reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"core.dp_states", "count"},
		{"core.probes", "count"},
		{"core.probe_s", "s"},
		{"core.prep_s", "s"},
		{"core.states_per_s", "1/s"},
		{"core.alloc_mb", "MB"},
	}
	for _, c := range searchCells {
		defs = append(defs, metricDef{"core.search_s." + c, "s"})
	}
	defs = append(defs,
		metricDef{"costmodel.calls", "count"},
		metricDef{"costmodel.self_s", "s"},
		metricDef{"costmodel.cache_hit_ratio", "ratio"},
		metricDef{"pipedream.dp_states", "count"},
		metricDef{"pipedream.alloc_mb", "MB"},
	)
	for _, c := range searchCells {
		defs = append(defs, metricDef{"pipedream.search_s." + c, "s"})
	}
	defs = append(defs,
		metricDef{"piper.dp_states", "count"},
		metricDef{"piper.alloc_mb", "MB"},
		metricDef{"memosnap.export_s", "s"},
		metricDef{"memosnap.import_s", "s"},
		metricDef{"memosnap.entries", "count"},
		metricDef{"memosnap.entries_reused", "count"},
		metricDef{"memosnap.encoded_mb", "MB"},
		metricDef{"memosnap.encode_s", "s"},
		metricDef{"memosnap.decode_s", "s"},
		metricDef{"memosnap.warm_speedup", "ratio"},
		metricDef{"memostore.lookup_s", "s"},
		metricDef{"memostore.install_s", "s"},
		metricDef{"eval.sim_s", "s"},
		metricDef{"eval.runtime_s", "s"},
		metricDef{"strategy.encode_s", "s"},
		metricDef{"strategy.decode_s", "s"},
		metricDef{"strategy.verify_s", "s"},
		metricDef{"strategy.artifact_kb", "KB"},
		metricDef{"models.build_s", "s"},
		metricDef{"service.hit_memory_s", "s"},
		metricDef{"service.hit_disk_s", "s"},
		metricDef{"service.miss_s", "s"},
		metricDef{"service.eval_s", "s"},
		metricDef{"service.hit_ratio", "ratio"},
		metricDef{"service.disk_hit_share", "ratio"},
		metricDef{"service.planned", "count"},
		metricDef{"service.memo_warm_hits", "count"},
		metricDef{"fleet.router_overhead_s", "s"},
		metricDef{"fleet.peer_fills", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"fleet.breaker_opens", "count"},
		metricDef{"obs.spans_per_request", "count"},
		metricDef{"obs.trace_overhead", "s"},
	)
	return defs
}()
