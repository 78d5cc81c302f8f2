package main

import (
	"fmt"
	"math"
	"os"
)

// endToEnd are the metrics a run prints with --trace 0, on every
// workload, with their units. BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"replay_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a run prints with --trace 1. Every workload
// prints all of them; a layer the workload does not pass through reads
// 0 (the http.* and wal.* metrics on replays, sim.* on the service).
var perLayer = []struct{ name, unit string }{
	{"trace.load_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.contacts", "count"},
	{"engine.new_s", "s"},
	{"sim.driver_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.transfers_delivered", "count"},
	{"sim.transfers_dropped", "count"},
	{"knowledge.build_s", "s"},
	{"knowledge.build_share", "ratio"},
	{"knowledge.builds", "count"},
	{"knowledge.cache_hits", "count"},
	{"knowledge.snapshots_cached", "count"},
	{"scheme.self_s", "s"},
	{"core.pushes", "count"},
	{"core.replacement_drops", "count"},
	{"buffer.inserts", "count"},
	{"buffer.evictions", "count"},
	{"query.issued", "count"},
	{"query.answered", "count"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.query_samples", "count"},
	{"serve.write_p99_ms", "ms"},
	{"serve.write_samples", "count"},
	{"serve.max_qps", "1/s"},
	{"serve.failed_ratio", "ratio"},
	{"http.query_p50_ms", "ms"},
	{"http.query_p99_ms", "ms"},
	{"http.publish_p99_ms", "ms"},
	{"http.advance_p99_ms", "ms"},
	{"http.contacts_p99_ms", "ms"},
	{"http.shed", "count"},
	{"http.overhead_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_op", "bytes"},
	{"wal.checkpoints", "count"},
	{"wal.errors", "count"},
	{"engine.query_us", "us"},
	{"engine.publish_us", "us"},
	{"engine.ingest_us", "us"},
	{"engine.advance_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"obs.overhead_ratio", "ratio"},
}

// layerMetrics fills every per-layer metric from v, 0 where v has no
// value or no finite one (a median of no samples).
func layerMetrics(v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			fmt.Fprintf(os.Stderr, "dtnbench: %s has no finite value (%g); reporting 0\n", m.name, x)
			x = 0
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}

// e2eMetrics fills every end-to-end metric from v.
func e2eMetrics(v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
