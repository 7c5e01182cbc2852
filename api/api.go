// Package api defines the versioned wire contract of the tiresias
// serving layer: the request and response types of the /v2 HTTP API,
// the structured error envelope with stable machine-readable codes,
// and the opaque pagination cursors. It is shared by the server
// (package httpserve) and the Go client (package client), so the two
// sides cannot drift — a field added here lands on both ends of the
// wire in the same commit.
//
// Versioning contract: within /v2, existing fields and error codes
// are never renamed or removed, and unknown response fields must be
// ignored by clients. A breaking change means a new version prefix.
package api

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tiresias"
)

// Version is the wire API version this package defines.
const Version = "v2"

// Record is the ingest wire format of one operational record: the
// target stream (empty selects DefaultStream), the hierarchical
// category path (root-most component first), and the record time.
type Record struct {
	// Stream names the target stream; "" means DefaultStream.
	Stream string `json:"stream,omitempty"`
	// Path is the hierarchical category path, root first.
	Path []string `json:"path"`
	// Time is the record timestamp (RFC 3339 on the wire).
	Time time.Time `json:"time"`
}

// DefaultStream is the stream name used when a Record leaves Stream
// empty.
const DefaultStream = "default"

// IngestResponse summarizes one ingest call. On a pipelined server
// Queued is true and Anomalies is empty — detection happens
// asynchronously on the workers; follow /v2/anomalies or the watch
// stream for results.
type IngestResponse struct {
	// Accepted is the number of records accepted (fed or enqueued).
	Accepted int `json:"accepted"`
	// Queued reports asynchronous (pipelined) ingestion.
	Queued bool `json:"queued,omitempty"`
	// Anomalies lists the detections triggered by this call
	// (synchronous mode only; empty, never null).
	Anomalies []tiresias.Anomaly `json:"anomalies"`
}

// AnomaliesPage is one page of GET /v2/anomalies: matching entries
// oldest first, the resume cursor, and honest eviction accounting.
type AnomaliesPage struct {
	// Entries are the matching anomaly entries, oldest first.
	Entries []tiresias.AnomalyEntry `json:"entries"`
	// Cursor is the resume position after this page: pass it as
	// ?cursor= to poll for entries this page has not covered, or to
	// /v2/anomalies/watch to subscribe from here.
	Cursor string `json:"cursor"`
	// NextCursor is present exactly when more matching data was
	// retained beyond this page; follow it to paginate. Absent on
	// the final page.
	NextCursor string `json:"next_cursor,omitempty"`
	// Missed counts entries between the request cursor and the
	// index's eviction horizon that were evicted before the call —
	// data the walk has provably lost (0 for a live cursor).
	Missed uint64 `json:"missed,omitempty"`
	// CursorReset reports that the request cursor belonged to a
	// different index epoch (typically: the server restarted and its
	// in-memory index is fresh) and the walk restarted from the
	// oldest retained entry. The loss, if any, is unknowable — the
	// old epoch's entries are gone — so it is flagged, not counted.
	CursorReset bool `json:"cursor_reset,omitempty"`
	// Stats snapshots the index (occupancy, eviction horizon).
	Stats tiresias.IndexStats `json:"stats"`
}

// StreamDetail is the GET /v2/streams/{id} payload: the stream's
// status plus its current hierarchical heavy hitters.
type StreamDetail struct {
	tiresias.StreamStatus
	// HeavyHitters lists the SHHH membership keys of the stream's
	// most recently processed timeunit (empty before warmup).
	HeavyHitters []tiresias.Key `json:"heavyHitters"`
}

// WatchStats describes the live subscription fan-out of a server.
type WatchStats struct {
	// Subscribers is the number of currently attached watchers.
	Subscribers int `json:"subscribers"`
	// Delivered counts entries handed to subscriber buffers.
	Delivered uint64 `json:"delivered"`
	// Dropped counts entries not delivered because a subscriber's
	// buffer was full; the affected subscriber is disconnected (it
	// resumes by cursor) rather than silently skipped ahead.
	Dropped uint64 `json:"dropped"`
	// Lagged counts subscribers disconnected for falling behind.
	Lagged uint64 `json:"lagged"`
}

// IngestStats counts the server's HTTP ingest surface: what
// POST /v2/records accepted, before detection. The same counters back
// the tiresias_ingest_* series of GET /metrics — both views read one
// set of registers, so dashboards built on either cannot disagree.
type IngestStats struct {
	// Records is the number of records accepted (fed or enqueued)
	// across all ingest requests.
	Records uint64 `json:"records"`
	// Bytes is the total decoded request-body bytes of ingest calls.
	Bytes uint64 `json:"bytes"`
}

// StatsResponse is the GET /v2/stats payload.
type StatsResponse struct {
	// Manager reports ingest throughput and pipeline queue state.
	Manager tiresias.ManagerStats `json:"manager"`
	// Index reports anomaly-index occupancy and evictions.
	Index tiresias.IndexStats `json:"index"`
	// Watch reports the live subscription fan-out.
	Watch WatchStats `json:"watch"`
	// Ingest reports the HTTP ingest surface (records and bytes
	// accepted by POST /v2/records).
	Ingest IngestStats `json:"ingest"`
	// Panics counts handler panics the server recovered (each
	// answered with a structured 500 instead of a dropped
	// connection).
	Panics uint64 `json:"panics,omitempty"`
}

// Health status values of GET /v2/healthz. The endpoint always
// answers 200 — degraded still means serving; orchestration should
// key on the Status field, not the HTTP code.
const (
	// HealthOK: every stream is serving and no worker error is
	// latched.
	HealthOK = "ok"
	// HealthDegraded: the server is up but partially impaired —
	// quarantined streams and/or latched pipeline worker errors.
	HealthDegraded = "degraded"
)

// QuarantinedStream describes one quarantined stream in a health
// report.
type QuarantinedStream struct {
	// Stream is the quarantined stream's name.
	Stream string `json:"stream"`
	// Reason is the panic value that caused the quarantine.
	Reason string `json:"reason,omitempty"`
}

// HealthResponse is the GET /v2/healthz payload: overall status plus
// the specific impairments behind a degraded verdict, so automation
// can reopen quarantined streams rather than bounce the process.
type HealthResponse struct {
	// Status is HealthOK or HealthDegraded.
	Status string `json:"status"`
	// Streams is the number of live streams (quarantined included).
	Streams int `json:"streams"`
	// Quarantined lists streams refusing records after a contained
	// panic; absent when none.
	Quarantined []QuarantinedStream `json:"quarantined,omitempty"`
	// WorkerErrors are the most recent pipeline worker errors, one
	// per shard with a latched error; absent when none.
	WorkerErrors []string `json:"workerErrors,omitempty"`
	// Panics counts recovered handler panics (informational: it does
	// not degrade Status on its own).
	Panics uint64 `json:"panics,omitempty"`
}

// ServerConfig is the GET /v2/config payload: the effective serving
// configuration, so a client can introspect the detector parameters
// and ingest limits it is talking to.
type ServerConfig struct {
	// APIVersions lists the version prefixes the server speaks.
	APIVersions []string `json:"apiVersions"`
	// Delta is the timeunit size Δ (Go duration string).
	Delta string `json:"delta"`
	// WindowLen is the sliding-window length ℓ in timeunits.
	WindowLen int `json:"windowLen"`
	// Theta is the heavy-hitter threshold θ.
	Theta float64 `json:"theta"`
	// Thresholds are the Definition-4 sensitivity parameters.
	Thresholds tiresias.Thresholds `json:"thresholds"`
	// Shards is the manager's lock-shard count.
	Shards int `json:"shards"`
	// MaxGap bounds gap-fill timeunits per record (0 = unbounded).
	MaxGap int `json:"maxGap"`
	// Pipelined reports asynchronous ingestion; QueueDepth and
	// Backpressure describe it when true.
	Pipelined bool `json:"pipelined"`
	// QueueDepth is the per-shard queue capacity in jobs (one per
	// shard per ingest body).
	QueueDepth int `json:"queueDepth,omitempty"`
	// Backpressure is the full-queue policy name.
	Backpressure string `json:"backpressure,omitempty"`
	// IndexCap is the anomaly-index capacity in entries.
	IndexCap int `json:"indexCap"`
	// Checkpointing reports whether POST /v2/checkpoint is enabled.
	Checkpointing bool `json:"checkpointing"`
	// MaxBodyBytes is the ingest request body limit.
	MaxBodyBytes int64 `json:"maxBodyBytes"`
	// PageLimit is the hard cap on ?limit= for /v2/anomalies.
	PageLimit int `json:"pageLimit"`
}

// CheckpointResponse summarizes one POST /v2/checkpoint.
type CheckpointResponse struct {
	// Streams is the number of streams snapshotted.
	Streams int `json:"streams"`
	// Dir is the server-side checkpoint directory.
	Dir string `json:"dir"`
}

// Watch SSE event names on GET /v2/anomalies/watch. Every anomaly
// event carries an AnomalyEntry as data and its cursor as the SSE id;
// a lagged event signals the subscriber fell behind and was
// disconnected — reconnect with the last cursor to resume from the
// index without loss (within its retention horizon).
const (
	// EventAnomaly carries one tiresias.AnomalyEntry as JSON data.
	EventAnomaly = "anomaly"
	// EventLagged signals a slow-consumer disconnect; data is a
	// LaggedEvent.
	EventLagged = "lagged"
)

// LaggedEvent is the data payload of an EventLagged SSE event.
type LaggedEvent struct {
	// Dropped is the number of entries this subscriber missed.
	Dropped uint64 `json:"dropped"`
	// Cursor is the resume position: reconnect with it to replay
	// the missed entries from the index.
	Cursor string `json:"cursor"`
}

// Cursor encodes an anomaly-index position as an opaque wire token:
// the index epoch plus the sequence number. The epoch scopes the
// position to one index instance — a server restart starts a fresh
// index whose sequence numbers restart from 1, and the epoch is what
// lets it recognize (and reject, via AnomaliesPage.CursorReset) a
// stale cursor instead of silently misapplying it. Epoch 0 is the
// wildcard: such a cursor matches any index. Treat tokens as opaque;
// the format may change within /v2.
func Cursor(epoch, seq uint64) string {
	var b [1 + 2*13 + 1]byte // "c", two base-36 uint64s, "."
	return string(AppendCursor(b[:0], epoch, seq))
}

// AppendCursor appends the Cursor token of (epoch, seq) to b and
// returns the extended buffer; it allocates only if b lacks room.
func AppendCursor(b []byte, epoch, seq uint64) []byte {
	b = append(b, 'c')
	b = strconv.AppendUint(b, epoch, 36)
	b = append(b, '.')
	return strconv.AppendUint(b, seq, 36)
}

// ParseCursor decodes a wire cursor token produced by Cursor. The
// empty string and "0" both decode to the zero position of the
// wildcard epoch.
func ParseCursor(token string) (epoch, seq uint64, err error) {
	if token == "" || token == "0" {
		return 0, 0, nil
	}
	raw, ok := strings.CutPrefix(token, "c")
	if !ok {
		return 0, 0, fmt.Errorf("api: malformed cursor %q", token)
	}
	es, ss, ok := strings.Cut(raw, ".")
	if !ok {
		return 0, 0, fmt.Errorf("api: malformed cursor %q", token)
	}
	if epoch, err = strconv.ParseUint(es, 36, 64); err != nil {
		return 0, 0, fmt.Errorf("api: malformed cursor %q", token)
	}
	if seq, err = strconv.ParseUint(ss, 36, 64); err != nil {
		return 0, 0, fmt.Errorf("api: malformed cursor %q", token)
	}
	return epoch, seq, nil
}
