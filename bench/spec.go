package main

import (
	"runtime"
	"time"

	"tiresias/internal/gen"
)

// Fixed parameters shared by every workload. Event time drives the
// detector, so ingest speed is independent of delta.
const (
	delta       = 15 * time.Minute
	unitsPerDay = int(24 * time.Hour / delta)
	lapVariants = 4 // pre-encoded days replayed in seeded order
	pageSize    = 500
	pagerIdle   = 20 * time.Millisecond
	scrapeEvery = time.Second
	statsEvery  = 100 * time.Millisecond
	setupRounds = 3 // set-ups per clean run; setup_s is their median
)

// day0 is the first replayed day (a Monday; the weekly profile is off).
var day0 = time.Date(2010, 9, 13, 0, 0, 0, 0, time.UTC)

// workload is one served traffic mix. Each exists to put the work in a
// different layer; the why strings are the ones BENCHMARK.json
// records.
type workload struct {
	name, why string
	shape     gen.Shape
	streams   int
	// rate is the expected records per unit summed over streams; with
	// zipf set it is shared out 1/(rank) across them, else evenly.
	rate float64
	zipf bool
	// window is the server's -window (ℓ); warm is how many units of
	// every stream are sent before the clock starts. The detector
	// steps from unit ℓ on; ℓ+4 is enough for a steady state, except
	// on wide_tree, where the series stage of a step turns 8x dearer
	// 2ℓ units in and takes until about 2.5ℓ to settle (README.md).
	window int
	warm   int
	// bodyRecords is the POST size; merged bodies interleave all of a
	// lane's streams by time, the others hold one stream each; array
	// bodies go through IngestBatch (JSON array) instead of NDJSON.
	bodyRecords int
	merged      bool
	array       bool
	shards      int
	queue       int // 0 = synchronous FeedBatch
	watchers    int
	// readers adds the pager and the /metrics scraper beside ingest.
	readers bool
	// openRate > 0 selects the open loop at that many records/s, one
	// sender per stream; 0 is the closed loop.
	openRate float64
	// bursts is the number of 2-unit bursts per stream and day;
	// burstEveryUnit instead starts one in every unit on some stream.
	bursts         int
	burstEveryUnit bool
	// census makes day 0 touch every leaf. At 8 records a unit a tree
	// of 13k nodes would otherwise still be growing, and the step
	// cost with it, for as long as a run lasts: a faster server would
	// get further and measure a bigger tree.
	census bool
}

var workloads = []workload{
	{
		name:        "dense_ingest",
		why:         "1000-record single-stream NDJSON bodies on a small tree: decode-bound, one engine step per 1000 records",
		shape:       gen.CCDTroubleShape(),
		streams:     4,
		rate:        4000,
		window:      96,
		warm:        100,
		bodyRecords: 1000,
		shards:      4,
		queue:       64,
		watchers:    1,
		bursts:      4,
	},
	{
		name:        "wide_tree",
		why:         "8 records per unit on a 13k-node tree with a week-long window, synchronous ingest: step-bound, large state",
		shape:       gen.CCDNetworkShape(0.5),
		streams:     4,
		rate:        32,
		window:      672,
		warm:        1684,
		bodyRecords: 500,
		shards:      4,
		queue:       0,
		watchers:    1,
		bursts:      4,
		census:      true,
	},
	{
		name:        "mixed_fleet",
		why:         "64 Zipf-rated streams merged by time in every body: per-group enqueue, queue and shard-skew cost",
		shape:       gen.CCDNetworkShape(0.1),
		streams:     64,
		rate:        4000,
		zipf:        true,
		window:      96,
		warm:        100,
		bodyRecords: 1000,
		merged:      true,
		shards:      16,
		queue:       64,
		watchers:    1,
		bursts:      2,
	},
	{
		name:           "alert_storm",
		why:            "open loop at a fixed rate, 100-record JSON arrays, a burst every unit, 4 watchers, a pager and a scraper: reads beside writes, the latency case",
		shape:          gen.CCDTroubleShape(),
		streams:        8,
		rate:           800,
		window:         96,
		warm:           100,
		bodyRecords:    100,
		array:          true,
		shards:         8,
		queue:          64,
		watchers:       4,
		readers:        true,
		openRate:       60000,
		burstEveryUnit: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// lanes is the number of sending goroutines, each with its own
// connection and its own streams. The closed loops leave one core to
// the server; the open loop sends each stream on its own schedule.
func (w *workload) lanes() int {
	if w.openRate > 0 {
		return w.streams
	}
	return min(generatorProcs(), w.streams)
}

// generatorProcs is the generator's GOMAXPROCS and closed-loop
// connection count: every core but one, so generator and server do
// not fight for cores.
func generatorProcs() int { return max(1, runtime.NumCPU()-1) }

// metric describes one reported number. bound is the share of the
// parent's median by which an end-to-end metric may get worse.
type metric struct {
	name, unit string
	higher     bool
	bound      float64
}

// The bounds are three times the widest interquartile spread seen
// over ten seeds on the reference machine, capped at the contract's
// 25 %: on that VM even a single-threaded loop's speed wanders by
// ±15 %, so every time-based metric sits at the cap (see README.md).
var endToEnd = []metric{
	{"records_per_s", "records/s", true, 0.25},
	{"post_p50_ms", "ms", false, 0.25},
	{"detect_p50_ms", "ms", false, 0.25},
	{"cpu_us_per_record", "us", false, 0.25},
	{"allocs_per_record", "allocs", false, 0.03},
	{"alloc_bytes_per_record", "B", false, 0.05},
	{"rss_peak_mb", "MB", false, 0.25},
	{"checkpoint_mb", "MB", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// perLayer lists the layer metrics, prefixed by module name. Those
// marked served are read from the clean run's public surfaces; the
// rest come from the in-process ladder and traced run.
var perLayer = []metric{
	{"client.self_us_per_record", "us", false, 0},
	{"client.post_p99_ms", "ms", false, 0},
	{"client.detect_p99_ms", "ms", false, 0},
	{"client.late_p99_ms", "ms", false, 0},
	{"client.retries", "count", false, 0},
	{"client.watch_reconnects", "count", false, 0},
	{"client.watch_lagged", "count", false, 0},
	{"httpserve.self_us_per_record", "us", false, 0},
	{"httpserve.handler_ms_p50", "ms", false, 0},
	{"httpserve.body_mb_per_s", "MB/s", true, 0},
	{"httpserve.page_ms_p50", "ms", false, 0},
	{"httpserve.scrape_ms_p50", "ms", false, 0},
	{"httpserve.watch_delivered", "count", true, 0},
	{"httpserve.watch_dropped", "count", false, 0},
	{"httpserve.requests_4xx", "count", false, 0},
	{"httpserve.requests_5xx", "count", false, 0},
	{"api.decode_us_per_record", "us", false, 0},
	{"api.decode_allocs_per_record", "allocs", false, 0},
	{"api.encode_us_per_entry", "us", false, 0},
	{"tiresias.feedbatch_us_per_record", "us", false, 0},
	{"tiresias.enqueue_us_per_record", "us", false, 0},
	{"tiresias.self_us_per_record", "us", false, 0},
	{"tiresias.detector_us_per_unit", "us", false, 0},
	{"tiresias.groups_per_post", "count", false, 0},
	{"tiresias.queue_depth_mean", "count", false, 0},
	{"tiresias.queue_depth_max", "count", false, 0},
	{"tiresias.shard_skew", "ratio", false, 0},
	{"tiresias.dropped", "count", false, 0},
	{"tiresias.rejected", "count", false, 0},
	{"tiresias.failed", "count", false, 0},
	{"stream.window_us_per_record", "us", false, 0},
	{"stream.window_allocs_per_record", "allocs", false, 0},
	{"stream.units_out", "count", true, 0},
	{"hierarchy.intern_us_per_record", "us", false, 0},
	{"hierarchy.nodes", "count", false, 0},
	{"algo.step_us_p50", "us", false, 0},
	{"algo.step_us_mean", "us", false, 0},
	{"algo.step_allocs_per_unit", "allocs", false, 0},
	{"algo.stage_hier_us", "us", false, 0},
	{"algo.stage_series_us", "us", false, 0},
	{"algo.stage_forecast_us", "us", false, 0},
	{"algo.shhh_size_mean", "count", false, 0},
	{"algo.memory_floats", "count", false, 0},
	{"algo.steps", "count", true, 0},
	{"detect.screen_us_per_unit", "us", false, 0},
	{"detect.anomalies", "count", true, 0},
	{"detect.anomalies_per_kunit", "count", true, 0},
	{"store.add_us_per_entry", "us", false, 0},
	{"store.page_us_per_entry", "us", false, 0},
	{"store.evicted", "count", false, 0},
	{"checkpoint.write_ms", "ms", false, 0},
	{"checkpoint.restore_ms", "ms", false, 0},
	{"checkpoint.snapshot_us_per_stream", "us", false, 0},
	{"runtime.gc_cycles", "count", false, 0},
	{"runtime.heap_live_mb", "MB", false, 0},
	{"gen.generate_s", "s", false, 0},
	{"gen.encode_s", "s", false, 0},
	{"trace.overhead_pct", "%", false, 0},
	{"trace.ladder_residual_pct", "%", false, 0},
}
