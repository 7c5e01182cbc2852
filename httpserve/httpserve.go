// Package httpserve is the reusable HTTP serving layer of tiresias:
// it wires a sharded Manager, the bounded anomaly index, and a live
// subscription hub behind the versioned /v2 wire API defined in
// package api — NDJSON and batch ingest, cursor-paginated anomaly
// queries, per-stream introspection (including heavy hitters),
// configuration introspection, on-demand checkpoints, and a
// Server-Sent-Events watch stream with bounded per-subscriber buffers
// and slow-consumer drop accounting.
//
// The index is the server's only anomaly container (Steps 5–6 of the
// paper, Fig. 3(f)): detections enter it once, and /v2/anomalies, the
// watch hub, and the HTML dashboard at "/" all read it.
//
// cmd/tiresias-serve is flag parsing and process lifecycle around
// this package; embedders can mount Handler on any mux instead.
package httpserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/wirerec"
)

// Config assembles a Server. The zero value of every field selects a
// production-reasonable default, documented per field.
type Config struct {
	// Delta is the timeunit size Δ (default 15 minutes).
	Delta time.Duration
	// WindowLen is the sliding-window length ℓ (default 672).
	WindowLen int
	// Theta is the heavy-hitter threshold θ (default 10). With
	// Restore, a non-zero Theta overrides the checkpointed θ of every
	// restored stream; zero keeps it.
	Theta float64
	// Thresholds are the Definition-4 sensitivity parameters; the
	// zero value selects the paper's operating point. With Restore, a
	// non-zero value overrides the checkpointed RT and DT; zero keeps
	// them.
	Thresholds tiresias.Thresholds
	// DetectorOptions are appended to the per-stream detector
	// options built from the fields above (advanced tuning: split
	// rules, seasonality, extra sinks).
	DetectorOptions []tiresias.Option
	// Shards is the Manager's lock-shard count (default 16).
	Shards int
	// MaxGap bounds gap-fill timeunits per record: 0 selects
	// tiresias.DefaultMaxGap, negative disables the bound. With
	// Restore, a non-zero MaxGap overrides the checkpointed bound;
	// zero keeps it.
	MaxGap int
	// QueueDepth > 0 enables pipelined ingestion with that many jobs
	// of queue per shard (a job is one body's records for one shard);
	// 0 keeps ingestion synchronous.
	QueueDepth int
	// Backpressure is the pipeline's full-queue policy.
	Backpressure tiresias.BackpressurePolicy
	// IndexCap is the anomaly-index capacity (default 65536).
	IndexCap int
	// History preloads the index at construction (e.g. a file
	// written by cmd/tiresias -store). Entries land under the
	// HistoryStream name and share IndexCap with live detections:
	// bounded and eviction-counted like any other entry.
	History []tiresias.Anomaly
	// CheckpointDir enables POST /v2/checkpoint into the directory.
	CheckpointDir string
	// Restore rebuilds the fleet from CheckpointDir at construction
	// (a directory with no checkpoint cold-starts; see
	// Server.ColdStarted). Restored streams keep their checkpointed
	// θ, thresholds and gap bound unless Theta, Thresholds or MaxGap
	// is set; GET /v2/config reports the values new streams get.
	Restore bool
	// MaxBodyBytes caps ingest request bodies (default 8 MiB).
	// Negative is refused, as for PageLimit and WatchBuffer.
	MaxBodyBytes int64
	// PageLimit is the hard cap on /v2/anomalies page size and the
	// default watch replay chunk (default 1000).
	PageLimit int
	// WatchBuffer is the per-subscriber event buffer; a watcher
	// that falls this far behind is disconnected with a lagged
	// event and resumes by cursor (default 256).
	WatchBuffer int
	// WatchHeartbeat is the SSE keep-alive comment interval
	// (default 15s).
	WatchHeartbeat time.Duration
	// RetryAfter is the delay advertised in the Retry-After header
	// of queue-full 429 responses (default 1s, rounded up to whole
	// seconds on the wire).
	RetryAfter time.Duration
	// WriteTimeout is the per-request write deadline armed before
	// each handler runs, so one dead client socket cannot pin a
	// handler goroutine forever. The SSE watch stream exempts itself
	// (it is long-lived by design and paced by heartbeats). Negative
	// disables the deadline; 0 selects the default 60s. Deliberately
	// per-request, not http.Server.WriteTimeout — a server-level
	// write timeout would kill every watch stream at the deadline.
	WriteTimeout time.Duration
	// Logger receives structured request and lifecycle logs (slog
	// field conventions are documented in OPERATIONS.md). nil
	// discards — embedders and tests stay quiet by default;
	// cmd/tiresias-serve wires a JSON handler on stderr.
	Logger *slog.Logger
}

// withDefaults returns cfg with every zero field resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Delta == 0 {
		cfg.Delta = 15 * time.Minute
	}
	if cfg.WindowLen == 0 {
		cfg.WindowLen = 672
	}
	if cfg.Theta == 0 {
		cfg.Theta = 10
	}
	if cfg.Thresholds == (tiresias.Thresholds{}) {
		cfg.Thresholds = tiresias.DefaultThresholds()
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.MaxGap == 0 {
		cfg.MaxGap = tiresias.DefaultMaxGap
	} else if cfg.MaxGap < 0 {
		cfg.MaxGap = 0 // 0 disables the bound in WithMaxGap terms
	}
	if cfg.IndexCap == 0 {
		cfg.IndexCap = 65536
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.PageLimit == 0 {
		cfg.PageLimit = 1000
	}
	if cfg.WatchBuffer == 0 {
		cfg.WatchBuffer = 256
	}
	if cfg.WatchHeartbeat == 0 {
		cfg.WatchHeartbeat = 15 * time.Second
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = time.Minute
	} else if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return cfg
}

// Server serves the tiresias wire API over a Manager fleet. Construct
// with New, mount Handler, and Close when done (drains the ingestion
// pipeline and disconnects watchers).
type Server struct {
	cfg       Config
	mgr       *tiresias.Manager
	ix        *tiresias.AnomalyIndex
	hub       *hub
	mux       *http.ServeMux
	handler   http.Handler
	pipelined bool
	metrics   *serverMetrics
	// log is Config.Logger with component=http bound once, for the
	// request and handler-panic lines.
	log *slog.Logger
	// cache and decoders are the ingest decode state (decode.go): the
	// server-wide span caches and the pooled per-request decoders.
	cache    *wirerec.Cache
	decoders sync.Pool

	// panics counts handler panics the recovery middleware contained,
	// surfaced in /v2/stats and /v2/healthz.
	panics atomic.Uint64

	// ColdStarted reports that Config.Restore was set but the
	// checkpoint directory held no checkpoint yet, so the fleet
	// started cold — first boot of a durable deployment, not an
	// error.
	ColdStarted bool
}

// New builds a Server from cfg: detector options are validated
// eagerly (bad configuration fails here, not mid-ingest), the fleet
// is restored from Config.CheckpointDir when Config.Restore is set,
// and all routes are wired.
func New(cfg Config) (*Server, error) {
	for _, f := range [...]struct {
		name string
		v    int64
	}{{"MaxBodyBytes", cfg.MaxBodyBytes}, {"PageLimit", int64(cfg.PageLimit)}, {"WatchBuffer", int64(cfg.WatchBuffer)}} {
		if f.v < 0 {
			return nil, fmt.Errorf("httpserve: Config.%s is %d, want 0 (the default) or more", f.name, f.v)
		}
	}
	given := cfg
	cfg = cfg.withDefaults()
	history := cfg.History
	cfg.History = nil // the index owns it now; do not pin the slice
	ix := tiresias.NewAnomalyIndex(cfg.IndexCap)
	s := &Server{
		cfg:       cfg,
		ix:        ix,
		hub:       newHub(ix.Epoch()),
		pipelined: cfg.QueueDepth > 0,
		metrics:   newServerMetrics(cfg.Shards),
		log:       cfg.Logger.With(slog.String("component", "http")),
		cache:     wirerec.NewCache(wirerec.PathCacheCap, wirerec.StreamCacheCap),
	}
	s.decoders.New = func() any { return &decoder{sc: wirerec.Scanner{Cache: s.cache}} }
	s.ix.Add(HistoryStream, history...)
	liveOpts := []tiresias.Option{
		tiresias.WithDelta(cfg.Delta),
		tiresias.WithWindowLen(cfg.WindowLen),
		tiresias.WithSink(tiresias.SinkFuncs{Unit: s.metrics.observeStep}),
	}
	// θ, the thresholds and the gap bound are passed only when the
	// caller set them: a restored stream keeps its checkpointed values
	// otherwise, and a new stream gets the detector defaults, which
	// are withDefaults' values.
	if given.Theta != 0 {
		liveOpts = append(liveOpts, tiresias.WithTheta(cfg.Theta))
	}
	if given.Thresholds != (tiresias.Thresholds{}) {
		liveOpts = append(liveOpts, tiresias.WithThresholds(cfg.Thresholds))
	}
	if given.MaxGap != 0 {
		liveOpts = append(liveOpts, tiresias.WithMaxGap(cfg.MaxGap))
	}
	liveOpts = append(liveOpts, cfg.DetectorOptions...)
	mgrOpts := []tiresias.ManagerOption{
		tiresias.WithShards(cfg.Shards),
		tiresias.WithDetectorOptions(liveOpts...),
		tiresias.WithAnomalyIndex(s.ix),
		tiresias.WithAnomalyObserver(s.hub.publish),
	}
	if s.pipelined {
		mgrOpts = append(mgrOpts, tiresias.WithPipeline(cfg.QueueDepth, cfg.Backpressure))
	}
	var err error
	if cfg.Restore {
		s.mgr, err = tiresias.ManagerFromCheckpoint(cfg.CheckpointDir, mgrOpts...)
		if errors.Is(err, tiresias.ErrNoCheckpoint) {
			// First boot of a durable deployment is a cold start,
			// not an error — otherwise a service configured with
			// restore-on-boot could never write its first
			// checkpoint.
			s.ColdStarted = true
			s.mgr, err = tiresias.NewManager(mgrOpts...)
		}
	} else {
		s.mgr, err = tiresias.NewManager(mgrOpts...)
	}
	if err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// routes wires the /v2 API, the metrics scrape, and the dashboard.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v2/records", s.ingestV2)
	s.mux.HandleFunc("GET /v2/anomalies", s.anomaliesV2)
	s.mux.HandleFunc("GET /v2/anomalies/watch", s.watch)
	s.mux.HandleFunc("GET /v2/streams", s.streamsV2)
	s.mux.HandleFunc("GET /v2/streams/{id}", s.streamDetailV2)
	s.mux.HandleFunc("GET /v2/stats", s.statsV2)
	s.mux.HandleFunc("GET /v2/config", s.configV2)
	s.mux.HandleFunc("GET /v2/healthz", s.healthzV2)
	s.mux.HandleFunc("POST /v2/checkpoint", s.checkpointV2)
	s.mux.Handle("GET /metrics", s.metricsHandler())
	s.mux.HandleFunc("GET /{$}", s.dashboard)
	s.handler = s.contain(s.mux)
}

// Handler returns the root handler: /v2, /metrics, and the
// dashboard, wrapped in the per-request containment middleware
// (panic recovery plus the write deadline).
func (s *Server) Handler() http.Handler { return s.handler }

// contain is the per-request containment middleware: it arms the
// write deadline (Config.WriteTimeout), converts a handler panic into
// a structured 500 plus a counted recovery — one poisoned request
// must not kill the process serving every other stream — and records
// the request on the metrics and the structured log: a 2xx or 3xx at
// Debug, a 4xx at Warn, a 5xx at Error.
func (s *Server) contain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		begin := time.Now()
		finish := func() {
			status := tw.status
			if status == 0 {
				status = http.StatusOK // body-only (or empty 200) response
			}
			d := time.Since(begin)
			// The SSE watch stream is long-lived by design; its
			// connection lifetime would drown the latency histogram,
			// so it is counted but not timed.
			s.metrics.observeRequest(status, d, r.URL.Path != "/v2/anomalies/watch")
			// A success is routine at this rate (the request histogram
			// counts it); only failures reach the default log floor.
			level := slog.LevelDebug
			if status >= 500 {
				level = slog.LevelError
			} else if status >= 400 {
				level = slog.LevelWarn
			}
			s.log.LogAttrs(r.Context(), level, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
				slog.String("remote", r.RemoteAddr),
			)
		}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.log.LogAttrs(r.Context(), slog.LevelError, "handler panic",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("err", p),
				)
				if !tw.wrote {
					writeErrorV2(tw, &wireError{
						status:  http.StatusInternalServerError,
						code:    api.CodeInternal,
						message: fmt.Sprintf("internal panic: %v", p),
					})
				}
				// Headers already sent: nothing coherent can be
				// written; the connection is torn down by the panic
				// counting alone.
			}
			finish()
		}()
		if s.cfg.WriteTimeout > 0 {
			// Best effort: test recorders don't support deadlines.
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether the response has started (so the
// recovery middleware knows whether a structured 500 can still be
// written) and the status code (for the request metrics and log). It
// forwards Flush and exposes Unwrap so SSE streaming and
// ResponseController deadlines keep working through the wrapper.
type trackingWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

// WriteHeader implements http.ResponseWriter.
func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	if t.status == 0 {
		t.status = code
	}
	t.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	if t.status == 0 {
		t.status = http.StatusOK
	}
	return t.ResponseWriter.Write(p)
}

// Flush implements http.Flusher (the watch stream requires it).
func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// Manager exposes the underlying fleet (for lifecycle hooks such as
// periodic checkpoints; treat as shared).
func (s *Server) Manager() *tiresias.Manager { return s.mgr }

// Close drains the ingestion pipeline (every acknowledged record
// flows through detection) and disconnects all watch subscribers.
// Call it after the HTTP server has stopped accepting requests.
func (s *Server) Close() error {
	err := s.mgr.Close()
	s.hub.closeAll()
	return err
}

// errCheckpointDisabled marks a checkpoint request on a server built
// without Config.CheckpointDir.
var errCheckpointDisabled = errors.New("checkpointing disabled: no checkpoint directory configured")

// Checkpoint snapshots every live stream into Config.CheckpointDir.
func (s *Server) Checkpoint() (int, error) {
	if s.cfg.CheckpointDir == "" {
		return 0, errCheckpointDisabled
	}
	return s.mgr.Checkpoint(s.cfg.CheckpointDir)
}

// wireError is an error on its way out: the structured envelope plus
// its transport details.
type wireError struct {
	status     int
	code       string
	message    string
	details    map[string]any
	retryAfter time.Duration
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErrorV2 renders a wireError as the /v2 structured envelope.
func writeErrorV2(w http.ResponseWriter, e *wireError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(e.retryAfter))
	}
	writeJSON(w, e.status, api.ErrorResponse{Error: &api.Error{
		Code:    e.code,
		Message: e.message,
		Details: e.details,
	}})
}

// retryAfterSeconds renders a delay as the whole-second Retry-After
// header value, rounding up so a sub-second hint never becomes 0.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ingestV2 serves POST /v2/records: decode (JSON object, array, or
// NDJSON by Content-Type), validate the whole batch before feeding
// anything, then feed or enqueue per-stream groups. ?wait=<bool>
// drains the pipeline before the response returns.
func (s *Server) ingestV2(w http.ResponseWriter, r *http.Request) {
	resp := api.IngestResponse{Anomalies: []tiresias.Anomaly{}}
	// Accepted records are counted on the ingest metrics whether or
	// not the call as a whole errored — Accepted is the contract
	// either way.
	defer func() { s.metrics.ingestRecords.Add(uint64(resp.Accepted)) }()
	wait := false
	if v := r.URL.Query().Get("wait"); v != "" {
		var err error
		if wait, err = strconv.ParseBool(v); err != nil {
			writeErrorV2(w, badParam("wait", err))
			return
		}
	}
	if r.ContentLength > s.cfg.MaxBodyBytes {
		writeErrorV2(w, s.bodyTooLarge())
		return
	}
	d := s.decoders.Get().(*decoder)
	defer s.putDecoder(d)
	if err := d.readBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes); err != nil {
		we := s.bodyTooLarge()
		if !errors.Is(err, errBodyTooLarge) {
			we = &wireError{status: http.StatusBadRequest, code: api.CodeBadRequest, message: err.Error()}
		}
		writeErrorV2(w, we)
		return
	}
	if we := s.decodeIngest(d, strings.Contains(r.Header.Get("Content-Type"), "ndjson")); we != nil {
		writeErrorV2(w, we)
		return
	}
	resp.Queued = s.pipelined
	if s.pipelined {
		// One call per body: the Manager copies the records out and
		// queues one job per shard. The request context bounds the
		// enqueue: a client that hung up stops waiting on a full
		// Block-policy queue instead of pinning this handler goroutine.
		n, err := s.mgr.EnqueueRuns(r.Context(), d.recs, d.runs)
		resp.Accepted = n
		if err != nil {
			writeErrorV2(w, s.feedError(err, n))
			return
		}
	} else {
		lo := 0
		for _, run := range d.runs {
			anoms, n, err := s.mgr.FeedBatch(run.Stream, d.recs[lo:run.End:run.End])
			lo = run.End
			resp.Accepted += n
			resp.Anomalies = append(resp.Anomalies, anoms...)
			if err != nil {
				writeErrorV2(w, s.feedError(err, resp.Accepted))
				return
			}
		}
	}
	if wait {
		s.mgr.Drain()
	}
	writeJSON(w, http.StatusOK, resp)
}

// bodyTooLarge is the 413 for a body over Config.MaxBodyBytes.
func (s *Server) bodyTooLarge() *wireError {
	return &wireError{
		status:  http.StatusRequestEntityTooLarge,
		code:    api.CodeBodyTooLarge,
		message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
	}
}

// putDecoder returns a request's decoder to the pool. A body buffer
// grown past MaxBodyBytes, or a record array past maxPooledRecords, is
// left to the collector rather than pinned.
func (s *Server) putDecoder(d *decoder) {
	d.lim.R = nil // do not pin the request body in the pool
	if int64(cap(d.body)) <= s.cfg.MaxBodyBytes && cap(d.recs) <= maxPooledRecords {
		s.decoders.Put(d)
	}
}

// decodeIngest decodes and validates the body d has read, leaving the
// records in d.recs and their same-stream runs in d.runs. Any decode
// error wins over the first invalid record, and the whole batch is
// validated before anything is fed, so a 400 has no side effects and
// the client can safely fix and re-post the batch.
func (s *Server) decodeIngest(d *decoder, ndjson bool) *wireError {
	begin := time.Now()
	err := d.decode(ndjson)
	s.metrics.ingestDecode.Observe(time.Since(begin).Seconds())
	s.metrics.pathCacheHits.Add(d.sc.PathHits)
	s.metrics.pathCacheMisses.Add(d.sc.PathMisses)
	if err != nil {
		return &wireError{status: http.StatusBadRequest, code: api.CodeBadRequest, message: err.Error()}
	}
	if d.bad >= 0 {
		return &wireError{
			status:  http.StatusBadRequest,
			code:    api.CodeInvalidRecord,
			message: fmt.Sprintf("record %d: %s", d.bad, d.why),
			details: map[string]any{"record": d.bad},
		}
	}
	// Counted only once the body has both passed the size limit and
	// decoded, so tiresias_ingest_bytes_total stays comparable to
	// tiresias_ingest_records_total (rejected bodies count in neither).
	s.metrics.ingestBytes.Add(uint64(len(d.body)))
	return nil
}

// feedError builds the envelope for a batch that failed part-way
// through feeding or enqueueing. Out-of-order and gap errors depend
// on live stream state and can only surface mid-feed, so the details
// report how far the batch got and the client can resume past the
// bad record. An error with no wire code of its own is the client's
// fault when fed synchronously (400) and the server's when enqueueing
// (503: closing, or the request context ended).
func (s *Server) feedError(err error, accepted int) *wireError {
	fallback := api.CodeBadRequest
	if s.pipelined {
		fallback = api.CodeInternal
	}
	code := api.CodeFor(err, fallback)
	we := &wireError{
		status:  api.StatusFor(code),
		code:    code,
		message: err.Error(),
		details: map[string]any{"accepted": accepted},
	}
	if code == api.CodeQueueFull {
		we.retryAfter = s.cfg.RetryAfter
	} else if we.status == http.StatusInternalServerError {
		we.status = http.StatusServiceUnavailable
	}
	return we
}

// anomalyQuery parses the shared anomaly-query parameters (stream,
// under, from, to, cursor) of the query and watch endpoints. reset
// reports a syntactically valid cursor from a different index epoch
// (the walk restarts from the oldest retained entry).
func (s *Server) anomalyQuery(r *http.Request) (q tiresias.AnomalyQuery, reset bool, we *wireError) {
	q = tiresias.AnomalyQuery{Stream: r.URL.Query().Get("stream")}
	if under := r.URL.Query().Get("under"); under != "" {
		q.Under = tiresias.KeyOf(strings.Split(under, "/"))
	}
	var err error
	if v := r.URL.Query().Get("from"); v != "" {
		if q.From, err = time.Parse(time.RFC3339, v); err != nil {
			return q, false, badParam("from", err)
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if q.To, err = time.Parse(time.RFC3339, v); err != nil {
			return q, false, badParam("to", err)
		}
	}
	if v := r.URL.Query().Get("cursor"); v != "" {
		epoch, seq, err := api.ParseCursor(v)
		if err != nil {
			return q, false, badParam("cursor", err)
		}
		if epoch != 0 && epoch != s.ix.Epoch() {
			// A cursor from another index instance (server restart):
			// its sequence numbers mean nothing here. Restart the
			// walk and say so, instead of silently reinterpreting
			// the number in the new epoch — which could skip or
			// repeat entries arbitrarily.
			return q, true, nil
		}
		q.Since = seq
	}
	return q, false, nil
}

// cursor renders an index position as a wire token under this
// server's epoch.
func (s *Server) cursor(seq uint64) string {
	return api.Cursor(s.ix.Epoch(), seq)
}

// pageLimit parses ?limit= for the paged anomaly views: default 100,
// at least 1, capped at Config.PageLimit.
func (s *Server) pageLimit(r *http.Request) (int, *wireError) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, badParam("limit", fmt.Errorf("want a positive integer, got %q", v))
		}
		limit = n
	}
	return min(limit, s.cfg.PageLimit), nil
}

// badParam builds the wireError for one unparsable query parameter.
func badParam(name string, err error) *wireError {
	return &wireError{
		status:  http.StatusBadRequest,
		code:    api.CodeBadRequest,
		message: fmt.Sprintf("bad %s: %v", name, err),
		details: map[string]any{"param": name},
	}
}

// anomaliesV2 serves GET /v2/anomalies: forward cursor pagination
// over the bounded index, oldest first, with a hard page cap and
// explicit eviction accounting.
func (s *Server) anomaliesV2(w http.ResponseWriter, r *http.Request) {
	q, reset, we := s.anomalyQuery(r)
	if we != nil {
		writeErrorV2(w, we)
		return
	}
	if q.Limit, we = s.pageLimit(r); we != nil {
		writeErrorV2(w, we)
		return
	}
	p := s.ix.PageAfter(q)
	if p.Entries == nil {
		p.Entries = []tiresias.AnomalyEntry{}
	}
	resp := api.AnomaliesPage{
		Entries:     p.Entries,
		Cursor:      s.cursor(p.Next),
		Missed:      p.Missed,
		CursorReset: reset,
		Stats:       s.ix.Stats(),
	}
	if p.More {
		resp.NextCursor = s.cursor(p.Next)
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamsV2 serves GET /v2/streams.
func (s *Server) streamsV2(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Streams())
}

// streamDetailV2 serves GET /v2/streams/{id}: status plus the
// stream's current hierarchical heavy hitters.
func (s *Server) streamDetailV2(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	st, hh, ok := s.mgr.Stream(name)
	if !ok {
		writeErrorV2(w, &wireError{
			status:  http.StatusNotFound,
			code:    api.CodeUnknownStream,
			message: fmt.Sprintf("unknown stream %q", name),
			details: map[string]any{"stream": name},
		})
		return
	}
	if hh == nil {
		hh = []tiresias.Key{}
	}
	writeJSON(w, http.StatusOK, api.StreamDetail{StreamStatus: st, HeavyHitters: hh})
}

// statsV2 serves GET /v2/stats from the same snapshot the /metrics
// scrape mirrors (see statsSnapshot).
func (s *Server) statsV2(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// healthzV2 serves GET /v2/healthz: always 200 (degraded still means
// serving — orchestration keys on the JSON status), with the concrete
// impairments listed so automation can target the fix (Reopen a
// quarantined stream) instead of bouncing the process.
func (s *Server) healthzV2(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	resp := api.HealthResponse{
		Status:  api.HealthOK,
		Streams: st.Streams,
		Panics:  s.panics.Load(),
	}
	for _, q := range s.mgr.Quarantined() {
		resp.Quarantined = append(resp.Quarantined, api.QuarantinedStream{
			Stream: q.Name,
			Reason: q.QuarantineReason,
		})
	}
	for _, ss := range st.Shards {
		if ss.Pipeline != nil && ss.Pipeline.LastError != "" {
			resp.WorkerErrors = append(resp.WorkerErrors, ss.Pipeline.LastError)
		}
	}
	if len(resp.Quarantined) > 0 || len(resp.WorkerErrors) > 0 {
		resp.Status = api.HealthDegraded
	}
	writeJSON(w, http.StatusOK, resp)
}

// configV2 serves GET /v2/config.
func (s *Server) configV2(w http.ResponseWriter, r *http.Request) {
	cfg := api.ServerConfig{
		APIVersions:   []string{api.Version},
		Delta:         s.cfg.Delta.String(),
		WindowLen:     s.cfg.WindowLen,
		Theta:         s.cfg.Theta,
		Thresholds:    s.cfg.Thresholds,
		Shards:        s.cfg.Shards,
		MaxGap:        s.cfg.MaxGap,
		Pipelined:     s.pipelined,
		IndexCap:      s.cfg.IndexCap,
		Checkpointing: s.cfg.CheckpointDir != "",
		MaxBodyBytes:  s.cfg.MaxBodyBytes,
		PageLimit:     s.cfg.PageLimit,
	}
	if s.pipelined {
		cfg.QueueDepth = s.cfg.QueueDepth
		cfg.Backpressure = s.cfg.Backpressure.String()
	}
	writeJSON(w, http.StatusOK, cfg)
}

// checkpointV2 serves POST /v2/checkpoint.
func (s *Server) checkpointV2(w http.ResponseWriter, r *http.Request) {
	n, err := s.Checkpoint()
	if err != nil {
		code := api.CodeInternal
		if errors.Is(err, errCheckpointDisabled) {
			code = api.CodeCheckpointDisabled
		}
		writeErrorV2(w, &wireError{status: api.StatusFor(code), code: code, message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, api.CheckpointResponse{Streams: n, Dir: s.cfg.CheckpointDir})
}
