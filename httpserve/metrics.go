package httpserve

// GET /metrics: the Prometheus exposition of the serving layer. Two
// kinds of series feed it. Live series (HTTP requests, ingest
// records/bytes, engine step latency) are updated in place on the hot
// paths through lock-free counters and histograms. Snapshot series
// (streams, queues, index, watch hub, checkpoints) mirror the same
// Manager/index/hub snapshot /v2/stats serves — refreshed on every
// scrape from one statsSnapshot() call, so the two surfaces cannot
// drift. Every family is registered at construction, features enabled
// or not, so the scrape surface is stable across configurations.

import (
	"net/http"
	"strconv"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/metrics"
)

// serverMetrics holds every registered series of a Server.
type serverMetrics struct {
	reg *metrics.Registry

	// Live series, updated on the hot paths.
	httpRequests  map[string]*metrics.Counter // by status class "2xx".."5xx"
	httpLatency   *metrics.Histogram
	ingestRecords *metrics.Counter
	ingestBytes   *metrics.Counter
	ingestDecode  *metrics.Histogram
	// pathCacheHits/Misses count the decode scanner's path-cache
	// lookups, so the hit ratio on real traffic is read, not assumed.
	pathCacheHits   *metrics.Counter
	pathCacheMisses *metrics.Counter
	engineStep      *metrics.Histogram
	engineStages    [3]*metrics.Histogram // hierarchies, series, detection

	// Snapshot series, refreshed per scrape from statsSnapshot().
	streams          *metrics.Gauge
	quarantined      *metrics.Gauge
	managerRecords   *metrics.Counter
	managerAnomalies *metrics.Counter
	queueDepth       []*metrics.Gauge // per shard
	queueCap         []*metrics.Gauge // per shard
	pipeEnqueued     *metrics.Counter
	pipeDropped      []*metrics.Counter // per shard
	pipeRejected     *metrics.Counter
	pipeFailed       *metrics.Counter
	indexEntries     *metrics.Gauge
	indexCapacity    *metrics.Gauge
	indexAdded       *metrics.Counter
	indexEvicted     *metrics.Counter
	indexOldestSeq   *metrics.Gauge
	watchSubscribers *metrics.Gauge
	watchDelivered   *metrics.Counter
	watchDropped     *metrics.Counter
	watchLagged      *metrics.Counter
	panics           *metrics.Counter
	ckptTotal        *metrics.Counter
	ckptDuration     *metrics.Gauge
	ckptAge          *metrics.Gauge
	ckptGeneration   *metrics.Gauge
	ckptStreams      *metrics.Gauge
	ckptBytes        *metrics.Gauge
}

// engineStageNames label the engine_stage_seconds histograms, in the
// order of serverMetrics.engineStages; they match the StageTimings
// fields (the paper's three per-timeunit pipeline stages).
var engineStageNames = [3]string{"updating_hierarchies", "creating_time_series", "detecting_anomalies"}

// newServerMetrics registers the full metric surface for a server
// with the given shard count.
func newServerMetrics(shards int) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{reg: r, httpRequests: make(map[string]*metrics.Counter)}

	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		m.httpRequests[class] = r.Counter("tiresias_http_requests_total",
			"HTTP requests served, by status class.",
			metrics.Label{Name: "code", Value: class})
	}
	m.httpLatency = r.Histogram("tiresias_http_request_seconds",
		"HTTP request latency (watch streams excluded).", metrics.DurationBuckets())
	m.ingestRecords = r.Counter("tiresias_ingest_records_total",
		"Records accepted by the ingest endpoints (fed or enqueued).")
	m.ingestBytes = r.Counter("tiresias_ingest_bytes_total",
		"Decoded ingest request-body bytes.")
	m.ingestDecode = r.Histogram("tiresias_ingest_decode_seconds",
		"Decode time per ingest body (scan, cache lookups, encoding/json fallback), body read excluded.", metrics.DurationBuckets())
	m.pathCacheHits = r.Counter("tiresias_ingest_path_cache_hits_total",
		"Record paths the ingest decoder resolved from its span cache.")
	m.pathCacheMisses = r.Counter("tiresias_ingest_path_cache_misses_total",
		"Record paths the ingest decoder had to decode through encoding/json.")
	m.engineStep = r.Histogram("tiresias_engine_step_seconds",
		"Detection-step latency per completed timeunit (all stages).", metrics.DurationBuckets())
	for i, stage := range engineStageNames {
		m.engineStages[i] = r.Histogram("tiresias_engine_stage_seconds",
			"Detection-step latency, by pipeline stage.", metrics.DurationBuckets(),
			metrics.Label{Name: "stage", Value: stage})
	}

	m.streams = r.Gauge("tiresias_streams", "Live streams (quarantined included).")
	m.quarantined = r.Gauge("tiresias_streams_quarantined",
		"Streams refusing records after a contained panic (triage via /v2/healthz, then Reopen).")
	m.managerRecords = r.Counter("tiresias_manager_records_total",
		"Records fed through detection on any path.")
	m.managerAnomalies = r.Counter("tiresias_manager_anomalies_total",
		"Anomalies detected on any path.")
	m.queueDepth = make([]*metrics.Gauge, shards)
	m.queueCap = make([]*metrics.Gauge, shards)
	m.pipeDropped = make([]*metrics.Counter, shards)
	for i := 0; i < shards; i++ {
		shard := metrics.Label{Name: "shard", Value: strconv.Itoa(i)}
		m.queueDepth[i] = r.Gauge("tiresias_pipeline_queue_depth",
			"Jobs waiting in the shard's ingestion queue, one per shard per body (0 when not pipelined).", shard)
		m.queueCap[i] = r.Gauge("tiresias_pipeline_queue_capacity",
			"Configured shard queue capacity in jobs, one per shard per body (0 when not pipelined).", shard)
		m.pipeDropped[i] = r.Counter("tiresias_pipeline_dropped_total",
			"Records evicted from the shard's queue under the drop-oldest policy.", shard)
	}
	m.pipeEnqueued = r.Counter("tiresias_pipeline_enqueued_total",
		"Records accepted into the ingestion queues.")
	m.pipeRejected = r.Counter("tiresias_pipeline_rejected_total",
		"Records refused with 429 under the error backpressure policy.")
	m.pipeFailed = r.Counter("tiresias_pipeline_failed_total",
		"Records a pipeline worker's feed rejected (out-of-order, gap bound, dropped stream).")
	m.indexEntries = r.Gauge("tiresias_index_entries", "Anomaly-index entries retained.")
	m.indexCapacity = r.Gauge("tiresias_index_capacity", "Anomaly-index capacity.")
	m.indexAdded = r.Counter("tiresias_index_added_total", "Anomaly-index insertions.")
	m.indexEvicted = r.Counter("tiresias_index_evicted_total",
		"Anomaly-index entries overwritten by newer ones.")
	m.indexOldestSeq = r.Gauge("tiresias_index_oldest_seq",
		"Sequence number of the oldest retained index entry (the eviction horizon).")
	m.watchSubscribers = r.Gauge("tiresias_watch_subscribers", "Attached watch subscribers.")
	m.watchDelivered = r.Counter("tiresias_watch_delivered_total",
		"Entries handed to watch subscriber buffers.")
	m.watchDropped = r.Counter("tiresias_watch_dropped_total",
		"Entries a slow watch subscriber missed before its lagged disconnect.")
	m.watchLagged = r.Counter("tiresias_watch_lagged_total",
		"Watch subscribers disconnected for falling behind.")
	m.panics = r.Counter("tiresias_handler_panics_total",
		"Handler panics contained by the recovery middleware.")
	m.ckptTotal = r.Counter("tiresias_checkpoints_total", "Committed checkpoints.")
	m.ckptDuration = r.Gauge("tiresias_checkpoint_duration_seconds",
		"Wall-clock cost of the last committed checkpoint, drain included.")
	m.ckptAge = r.Gauge("tiresias_checkpoint_age_seconds",
		"Seconds since the last committed checkpoint (0 before the first).")
	m.ckptGeneration = r.Gauge("tiresias_checkpoint_generation",
		"Generation number of the last committed checkpoint.")
	m.ckptStreams = r.Gauge("tiresias_checkpoint_streams",
		"Streams the last committed checkpoint wrote.")
	m.ckptBytes = r.Gauge("tiresias_checkpoint_bytes",
		"Bytes of stream files the last committed checkpoint wrote.")
	return m
}

// observeRequest records one finished HTTP request on the live
// series; timed selects whether the latency histogram sees it (false
// for the long-lived watch stream).
func (m *serverMetrics) observeRequest(status int, d time.Duration, timed bool) {
	class := "5xx"
	switch {
	case status < 300:
		class = "2xx"
	case status < 400:
		class = "3xx"
	case status < 500:
		class = "4xx"
	}
	m.httpRequests[class].Inc()
	if timed {
		m.httpLatency.Observe(d.Seconds())
	}
}

// observeStep is every live detector's unit sink: it feeds the engine
// latency histograms from the unit's stage timings. Runs under a shard
// lock; everything here is lock-free.
func (m *serverMetrics) observeStep(ev tiresias.UnitEvent) {
	t := ev.Timings
	m.engineStep.Observe(t.Total().Seconds())
	m.engineStages[0].Observe(t.UpdatingHierarchies.Seconds())
	m.engineStages[1].Observe(t.CreatingTimeSeries.Seconds())
	m.engineStages[2].Observe(t.DetectingAnomalies.Seconds())
}

// refresh mirrors one stats snapshot onto the snapshot series. Called
// per scrape, so /metrics and /v2/stats render the same registers.
func (m *serverMetrics) refresh(st api.StatsResponse) {
	ms := st.Manager
	m.streams.Set(float64(ms.Streams))
	m.quarantined.Set(float64(ms.Quarantined))
	m.managerRecords.Set(ms.Records)
	m.managerAnomalies.Set(ms.Anomalies)
	m.pipeEnqueued.Set(ms.Enqueued)
	m.pipeRejected.Set(ms.Rejected)
	m.pipeFailed.Set(ms.Failed)
	for _, ss := range ms.Shards {
		if ss.Shard >= len(m.queueDepth) || ss.Pipeline == nil {
			continue
		}
		m.queueDepth[ss.Shard].Set(float64(ss.Pipeline.QueueDepth))
		m.queueCap[ss.Shard].Set(float64(ss.Pipeline.QueueCap))
		m.pipeDropped[ss.Shard].Set(ss.Pipeline.Dropped)
	}
	m.indexEntries.Set(float64(st.Index.Len))
	m.indexCapacity.Set(float64(st.Index.Capacity))
	m.indexAdded.Set(st.Index.Added)
	m.indexEvicted.Set(st.Index.Evicted)
	m.indexOldestSeq.Set(float64(st.Index.OldestSeq))
	m.watchSubscribers.Set(float64(st.Watch.Subscribers))
	m.watchDelivered.Set(st.Watch.Delivered)
	m.watchDropped.Set(st.Watch.Dropped)
	m.watchLagged.Set(st.Watch.Lagged)
	m.panics.Set(st.Panics)
	if cs := ms.Checkpoint; cs != nil {
		m.ckptTotal.Set(cs.Checkpoints)
		m.ckptDuration.Set(cs.LastDurationSeconds)
		m.ckptAge.Set(time.Since(cs.LastAt).Seconds())
		m.ckptGeneration.Set(float64(cs.Generation))
		m.ckptStreams.Set(float64(cs.LastStreams))
		m.ckptBytes.Set(float64(cs.LastBytes))
	}
}

// statsSnapshot assembles the shared stats view: the single source of
// truth behind both GET /v2/stats and the snapshot series of
// GET /metrics.
func (s *Server) statsSnapshot() api.StatsResponse {
	return api.StatsResponse{
		Manager: s.mgr.Stats(),
		Index:   s.ix.Stats(),
		Watch:   s.hub.stats(),
		Ingest: api.IngestStats{
			Records: s.metrics.ingestRecords.Value(),
			Bytes:   s.metrics.ingestBytes.Value(),
		},
		Panics: s.panics.Load(),
	}
}

// metricsHandler serves GET /metrics: refresh the snapshot series,
// then render the registry.
func (s *Server) metricsHandler() http.Handler {
	render := s.metrics.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.refresh(s.statsSnapshot())
		render.ServeHTTP(w, r)
	})
}

// MetricNames returns the sorted names of every metric family the
// server exposes on GET /metrics — the machine-readable surface the
// OPERATIONS.md reference table is checked against.
func (s *Server) MetricNames() []string { return s.metrics.reg.Names() }
