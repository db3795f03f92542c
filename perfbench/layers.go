package main

// e2eUnit lists the end-to-end metrics (BENCHMARK.json end_to_end) with
// their units. Every workload measures every one of them; what each
// means per workload is documented in metrics.json.
var e2eUnit = map[string]string{
	"setup_s":         "s",
	"throughput_rps":  "1/s",
	"cpu_us_per_rec":  "us",
	"alloc_b_per_rec": "B",
}

// layerUnit lists the per-layer metrics (BENCHMARK.json per_layer) with
// their units. A traced run of any workload reports all of them; a layer
// the workload bypasses reads 0.
var layerUnit = map[string]string{
	"archive.open_s":                "s",
	"pipeline.decode_s":             "s",
	"mrt.records":                   "count",
	"mrt.decode_mb_per_s":           "MB/s",
	"pipeline.decode_passes":        "ratio",
	"pipeline.speedup_x":            "ratio",
	"pipeline.overhead_x":           "ratio",
	"intern.hit_ratio":              "ratio",
	"mrt.pool_reuse_ratio":          "ratio",
	"zombie.build_history_s":        "s",
	"zombie.build_history_alloc_mb": "MB",
	"zombie.history_events":         "count",
	"zombie.detect_kernel_s":        "s",
	"zombie.intervals":              "count",
	"zombie.summarize_s":            "s",
	"zombie.lifespans_s":            "s",
	"zombie.anomaly_history_s":      "s",
	"zombie.anomaly_eval_s":         "s",
	"zombie.anomaly_findings":       "count",
	"zombie.stream_detect_s":        "s",
	"livefeed.ingest_us":            "us",
	"livefeed.publish_s":            "s",
	"livefeed.encodes":              "count",
	"livefeed.frames_shared":        "count",
	"livefeed.shard_matches":        "count",
	"livefeed.shard_skips":          "count",
	"livefeed.drops":                "count",
	"livefeed.e2e_p99_ms":           "ms",
	"livefeed.bytes_written":        "B",
	"wire.client_next_us":           "us",
	"generator.late_ms_p99":         "ms",
	"generator.late_ms_max":         "ms",
	"livefeed.backfill_catchup_s":   "s",
	"livefeed.block_stalls":         "count",
	"eventstore.appends":            "count",
	"eventstore.append_p99_us":      "us",
	"eventstore.fsync_p99_us":       "us",
	"eventstore.seals":              "count",
	"eventstore.open_s":             "s",
	"eventstore.scan_mb_per_s":      "MB/s",
	"livefeed.recover_s":            "s",
	"batch.report_s":                "s",
	"batch.report_alloc_mb":         "MB",
	"batch.unaccounted_frac":        "ratio",
	"live.latency_p50_ms":           "ms",
	"live.latency_p99_ms":           "ms",
	"journal.restart_s":             "s",
	"trace.overhead_frac":           "ratio",
}

// zeroLayers starts a traced result with every per-layer metric at 0, so
// layers a workload bypasses still report.
func zeroLayers(r *result) {
	for name := range layerUnit {
		r.setLayer(name, 0)
	}
}
