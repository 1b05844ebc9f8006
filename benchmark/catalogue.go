package main

// metricDef declares one metric. End-to-end metrics are emitted by
// untraced runs of every workload; per-layer metrics by traced runs.
// reach lists the workloads whose runs reach the metric's layer; a
// traced run of any other workload reports it as 0, meaning the layer
// did no work there. A nil reach means every workload.
type metricDef struct {
	name  string
	unit  string
	layer bool
	reach []string
}

const (
	wFit   = "fit-adult"
	wStrm  = "stream-adult"
	wSmall = "serve-small"
	wBulk  = "serve-bulk"
)

var (
	serveOnly  = []string{wSmall, wBulk}
	streamOnly = []string{wStrm}
)

// catalogue is the single list of metrics; BENCHMARK.json must declare
// exactly these, in these units (TestCatalogueMatchesBenchmarkJSON), and
// says which way each is better.
var catalogue = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_ms", unit: "ms"},
	{name: "rows_per_s", unit: "rows/s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "sse", unit: "1"},
	{name: "mean_ae", unit: "1"},

	{name: "dataset.next_s", unit: "s", layer: true, reach: streamOnly},
	{name: "dataset.rows_per_s", unit: "rows/s", layer: true, reach: streamOnly},
	{name: "dataset.alloc_mb", unit: "MB", layer: true, reach: streamOnly},
	{name: "pipeline.summarize_s", unit: "s", layer: true, reach: streamOnly},
	{name: "pipeline.solve_s", unit: "s", layer: true, reach: streamOnly},
	{name: "pipeline.evaluate_s", unit: "s", layer: true, reach: streamOnly},
	{name: "pipeline.alloc_mb", unit: "MB", layer: true, reach: streamOnly},
	{name: "pipeline.summary_rows", unit: "count", layer: true, reach: streamOnly},
	{name: "engine.iterations", unit: "count", layer: true},
	{name: "engine.moves", unit: "count", layer: true},
	{name: "engine.sweep_ms", unit: "ms", layer: true},
	{name: "core.setup_ms", unit: "ms", layer: true},
	{name: "core.alloc_mb", unit: "MB", layer: true},
	{name: "metrics.fairness_ms", unit: "ms", layer: true, reach: []string{wFit, wSmall, wBulk}},
	{name: "model.encode_ms", unit: "ms", layer: true},
	{name: "model.decode_ms", unit: "ms", layer: true},
	{name: "model.artifact_kb", unit: "KB", layer: true},
	{name: "stats.index_ns_per_row", unit: "ns/row", layer: true},
	{name: "stats.scan_ns_per_row", unit: "ns/row", layer: true},
	{name: "serve.assign_us_per_req", unit: "us/req", layer: true, reach: serveOnly},
	{name: "serve.assign_us_per_row", unit: "us/row", layer: true, reach: serveOnly},
	{name: "serve.assign_labelled_us_per_row", unit: "us/row", layer: true, reach: serveOnly},
	{name: "serve.admission_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "serve.queue_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "serve.score_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "serve.total_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "serve.shed", unit: "count", layer: true, reach: serveOnly},
	{name: "serve.deadline", unit: "count", layer: true, reach: serveOnly},
	{name: "http.overhead_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "http.req_kb", unit: "KB", layer: true, reach: serveOnly},
	{name: "http.resp_kb", unit: "KB", layer: true, reach: serveOnly},
	{name: "http.conn_wait_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "server.cpu_us_per_row", unit: "us/row", layer: true, reach: serveOnly},
	{name: "server.cpu_us_per_req", unit: "us/req", layer: true, reach: serveOnly},
	{name: "telemetry.scrape_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "telemetry.scrape_kb", unit: "KB", layer: true, reach: serveOnly},
	{name: "load.lag_p99_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "load.p50_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "load.p99_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "load.p999_ms", unit: "ms", layer: true, reach: serveOnly},
	{name: "load.client_cpu_share", unit: "ratio", layer: true, reach: serveOnly},
	{name: "load.knee_rows_per_s", unit: "rows/s", layer: true, reach: serveOnly},
	{name: "load.sent", unit: "count", layer: true, reach: serveOnly},
	{name: "load.ok", unit: "count", layer: true, reach: serveOnly},
	{name: "trace.overhead", unit: "ratio", layer: true},
	{name: "trace.coverage", unit: "ratio", layer: true},
}

func (d metricDef) reaches(workload string) bool {
	if d.reach == nil {
		return true
	}
	for _, w := range d.reach {
		if w == workload {
			return true
		}
	}
	return false
}
