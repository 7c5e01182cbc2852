package tiresias

// Pipelined ingestion: per-shard worker goroutines behind bounded
// channels, so throughput scales with cores instead of callers. The
// synchronous Feed/FeedBatch path stays available on the same Manager;
// the pipeline adds an asynchronous EnqueueBatch path with a
// configurable full-queue policy, drain barriers (Drain, and
// implicitly Checkpoint and Flush), and graceful shutdown (Close).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BackpressurePolicy selects what EnqueueBatch does when the target
// shard's queue is full.
type BackpressurePolicy int

const (
	// Block waits until the queue has space: lossless, and the
	// natural choice when the producer can tolerate stalls (the
	// stall is the backpressure signal).
	Block BackpressurePolicy = iota
	// DropOldest evicts the oldest queued batch to admit the new
	// one: bounded latency for live dashboards, with losses counted
	// in PipelineStats.Dropped rather than silently absorbed.
	DropOldest
	// ErrorWhenFull rejects the new batch with ErrQueueFull,
	// delegating the retry/shed decision to the caller (an ingest
	// endpoint turns it into HTTP 429).
	ErrorWhenFull
)

// String implements fmt.Stringer.
func (p BackpressurePolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case ErrorWhenFull:
		return "error"
	default:
		return fmt.Sprintf("BackpressurePolicy(%d)", int(p))
	}
}

// WithPipeline enables pipelined ingestion: NewManager starts one
// worker goroutine per shard, each fed by a bounded channel holding up
// to queueDepth record batches, and EnqueueBatch becomes usable. policy selects the full-queue behavior. A pipelined Manager
// owns goroutines: call Close when done with it.
func WithPipeline(queueDepth int, policy BackpressurePolicy) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) {
		o.queueDepth = queueDepth
		o.policy = policy
		o.pipelined = true
	})
}

// WithAnomalyIndex attaches a bounded AnomalyIndex to the Manager:
// every anomaly detected on any path — Feed, FeedBatch, Flush, or the
// pipeline workers — is recorded there tagged with its stream name,
// making detections queryable after the fact (time range, subtree,
// stream) instead of vanishing with the Feed return value.
func WithAnomalyIndex(ix *AnomalyIndex) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.index = ix })
}

// WithAnomalyObserver registers a live-subscription hook: after every
// detection batch is recorded in the attached AnomalyIndex (which is
// therefore required — NewManager rejects an observer without
// WithAnomalyIndex), f receives the indexed entries carrying their
// assigned sequence-number cursors. This is the feed behind fan-out
// subscription sinks (e.g. the httpserve SSE watch hub): the index
// provides the durable cursor space, the observer provides the push.
//
// f is called on the detecting goroutine under its shard lock, so it
// must return quickly and must never block — buffer or drop instead.
// Entries across concurrent shards may reach f slightly out of
// sequence order; within one stream they are always in order.
func WithAnomalyObserver(f func(entries []AnomalyEntry)) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.observer = f })
}

// WithStepObserver registers an engine-step instrumentation hook: f
// receives the StageTimings of every completed detection step on any
// ingestion path (Feed, FeedBatch, Flush, pipeline workers), for all
// streams — the feed behind the serving layer's engine-latency
// histograms. To keep metric cardinality bounded the hook is
// deliberately anonymous: it carries no stream name.
//
// f runs on the detecting goroutine under its shard lock, so it must
// return quickly and must never block; lock-free counters and
// histograms are the intended consumers.
func WithStepObserver(f func(timings StageTimings)) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.stepObs = f })
}

// ErrQueueFull is returned by EnqueueBatch under the
// ErrorWhenFull policy when the target shard's queue is full.
var ErrQueueFull = errors.New("tiresias: pipeline queue full")

// ErrPipelineClosed is returned by EnqueueBatch after Close.
var ErrPipelineClosed = errors.New("tiresias: pipeline closed")

// ErrNotPipelined is returned by EnqueueBatch on a Manager
// built without WithPipeline.
var ErrNotPipelined = errors.New("tiresias: manager is not pipelined (use WithPipeline)")

// pipeJob is one unit of worker input: a batch of records for one
// stream, or a drain barrier (recs nil, barrier non-nil).
type pipeJob struct {
	stream  string
	recs    []Record
	barrier chan<- struct{}
}

// pipeShard is the queue and loss accounting in front of one manager
// shard's worker.
type pipeShard struct {
	ch       chan pipeJob
	enqueued atomic.Uint64 // records accepted into the queue
	dropped  atomic.Uint64 // records evicted under DropOldest
	rejected atomic.Uint64 // records refused under ErrorWhenFull
	failed   atomic.Uint64 // records a worker feed rejected
	lastErr  atomic.Value  // string: most recent worker feed error
}

// pipeline is the asynchronous ingestion layer of a Manager: one
// bounded queue plus one worker per shard, so records of one stream
// are always processed by one goroutine, in enqueue order.
type pipeline struct {
	m      *Manager
	policy BackpressurePolicy
	shards []pipeShard
	wg     sync.WaitGroup

	// mu protects closed against in-flight sends: senders hold the
	// read side while touching channels, so Close cannot close a
	// channel under a concurrent send.
	mu     sync.RWMutex
	closed bool // guarded by mu
}

func newPipeline(m *Manager, depth int, policy BackpressurePolicy) *pipeline {
	p := &pipeline{m: m, policy: policy, shards: make([]pipeShard, len(m.shards))}
	for i := range p.shards {
		p.shards[i].ch = make(chan pipeJob, depth)
	}
	for i := range p.shards {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// worker drains one shard's queue. Feed errors cannot be returned to
// the (long gone) enqueuer, so they are counted and latched into the
// shard's stats instead of lost. A record-level error (out-of-order
// arrival, gap bound) poisons only that record: the worker resumes
// the batch past it, mirroring the documented caller-resume semantics
// of the synchronous FeedBatch — one displaced record must not
// silently discard the rest of its batch. Stream-level errors
// (quarantine, tombstone) are terminal for the batch: every remaining
// record would fail identically, so they are counted failed in one
// step.
func (p *pipeline) worker(i int) {
	defer p.wg.Done()
	ps := &p.shards[i]
	for job := range ps.ch {
		if job.barrier != nil {
			job.barrier <- struct{}{}
			continue
		}
		recs := job.recs
		for len(recs) > 0 {
			_, n, err := p.m.feedBatch(job.stream, recs)
			if err == nil {
				break
			}
			ps.lastErr.Store(err.Error())
			if errors.Is(err, ErrStreamQuarantined) || errors.Is(err, ErrStreamDropped) {
				ps.failed.Add(uint64(len(recs) - n))
				break
			}
			ps.failed.Add(1) // the offending record at index n
			recs = recs[n+1:]
		}
	}
}

// enqueue routes one job to its shard's queue under the configured
// backpressure policy. ctx bounds the wait: a Block policy send
// unblocks on cancellation, and the DropOldest eviction loop checks
// it between attempts. context.Background() (whose Done channel is
// nil, so the cancel select arm never fires) recovers the original
// unbounded behavior.
func (p *pipeline) enqueue(ctx context.Context, si int, job pipeJob) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPipelineClosed
	}
	ps := &p.shards[si]
	n := uint64(len(job.recs))
	switch p.policy {
	case DropOldest:
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			select {
			case ps.ch <- job:
				ps.enqueued.Add(n)
				return nil
			default:
			}
			select {
			case old := <-ps.ch:
				if old.barrier != nil {
					// An evicted barrier still holds its promise —
					// everything enqueued before it has now been
					// processed or dropped — so signal, don't hang
					// the drainer.
					old.barrier <- struct{}{}
				} else {
					ps.dropped.Add(uint64(len(old.recs)))
				}
			default:
				// A worker beat us to the oldest entry; retry the send.
			}
		}
	case ErrorWhenFull:
		select {
		case ps.ch <- job:
			ps.enqueued.Add(n)
			return nil
		default:
			ps.rejected.Add(n)
			return ErrQueueFull
		}
	default: // Block
		select {
		case ps.ch <- job:
			ps.enqueued.Add(n)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// drain inserts a barrier into every shard queue and waits until each
// worker reaches its barrier: on return, every record enqueued before
// the call has been processed (or, under DropOldest, dropped and
// counted). Returns immediately on a closed pipeline — Close already
// drained it.
func (p *pipeline) drain() {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return
	}
	done := make(chan struct{}, len(p.shards))
	for i := range p.shards {
		p.shards[i].ch <- pipeJob{barrier: done}
	}
	p.mu.RUnlock()
	for range p.shards {
		<-done
	}
}

// close marks the pipeline closed, closes the queues, and waits for
// the workers to finish the remaining jobs. Idempotent.
func (p *pipeline) close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		for i := range p.shards {
			close(p.shards[i].ch)
		}
	}
	p.wg.Wait()
}

// EnqueueBatch hands a batch of records for one stream to the
// pipeline and returns without waiting for detection. Records of one
// stream are processed in enqueue order by a single worker, so the
// in-order requirement of Feed carries over unchanged. The pipeline
// takes ownership of recs; the caller must not modify the slice after
// the call.
//
// When the target shard's queue is full the configured
// BackpressurePolicy decides: Block waits, DropOldest evicts the
// oldest queued batch (counted in PipelineStats.Dropped), and
// ErrorWhenFull returns ErrQueueFull. After Close, EnqueueBatch
// returns ErrPipelineClosed; on a non-pipelined Manager,
// ErrNotPipelined.
//
// Detection results are delivered through the detectors' sinks and
// the Manager's AnomalyIndex, not a return value; a worker-side feed
// error (out-of-order record, dropped stream, gap violation) is
// counted and latched in Stats rather than returned.
func (m *Manager) EnqueueBatch(streamName string, recs []Record) error {
	return m.EnqueueBatchContext(context.Background(), streamName, recs)
}

// EnqueueBatchContext is EnqueueBatch bounded by ctx — the shape an
// ingest endpoint needs, so a caller that hung up no longer pins a
// handler goroutine against a full queue. Under Block, a send that
// would wait unblocks when ctx is done and returns ctx.Err(); under
// DropOldest, cancellation is checked between eviction attempts. A
// ctx that is already done is refused before any queue interaction.
// Cancellation never un-enqueues: once EnqueueBatchContext returns
// nil the batch is owned by the pipeline and will be processed (or
// dropped and counted, under DropOldest) regardless of ctx.
func (m *Manager) EnqueueBatchContext(ctx context.Context, streamName string, recs []Record) error {
	if m.pipe == nil {
		return ErrNotPipelined
	}
	if len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.pipe.enqueue(ctx, m.shardIndex(streamName), pipeJob{stream: streamName, recs: recs})
}

// Drain blocks until every record enqueued before the call has been
// processed (or dropped, under DropOldest). It does not stop the
// workers: ingestion continues normally afterwards. On a
// non-pipelined or closed Manager, Drain is a no-op. Use it to order
// an EnqueueBatch stream against a read — e.g. before querying the
// AnomalyIndex in tests, or before Flush.
func (m *Manager) Drain() {
	if m.pipe != nil {
		m.pipe.drain()
	}
}

// Close gracefully shuts the pipeline down: no new records are
// accepted (EnqueueBatch returns ErrPipelineClosed), queued records
// are drained through detection, and the worker goroutines exit
// before Close returns. Close is idempotent and safe to call
// concurrently with enqueuers. The Manager itself stays usable — the
// synchronous Feed/FeedBatch/Flush/Checkpoint paths are unaffected.
// Close does not flush partial timeunits; call Flush per stream if
// stream end is meant.
func (m *Manager) Close() error {
	if m.pipe != nil {
		m.pipe.close()
	}
	return nil
}

// PipelineStats aggregates the queue-level accounting of one shard's
// pipeline (all counters are records, not batches).
type PipelineStats struct {
	// QueueDepth is the number of batches currently waiting.
	QueueDepth int `json:"queueDepth"`
	// QueueCap is the configured queue capacity in batches.
	QueueCap int `json:"queueCap"`
	// Enqueued counts records accepted into the queue.
	Enqueued uint64 `json:"enqueued"`
	// Dropped counts records evicted under DropOldest.
	Dropped uint64 `json:"dropped"`
	// Rejected counts records refused under ErrorWhenFull.
	Rejected uint64 `json:"rejected"`
	// Failed counts records the worker's feed rejected (out-of-order
	// timestamps, dropped streams, gap violations).
	Failed uint64 `json:"failed"`
	// LastError is the most recent worker feed error ("" if none).
	LastError string `json:"lastError,omitempty"`
}

// ShardStats is a point-in-time snapshot of one manager shard:
// detection throughput plus, on a pipelined Manager, its queue.
type ShardStats struct {
	// Shard is the shard number.
	Shard int `json:"shard"`
	// Streams is the number of live streams on the shard.
	Streams int `json:"streams"`
	// Quarantined is the number of the shard's streams currently
	// quarantined after a contained panic (see ErrStreamQuarantined).
	Quarantined int `json:"quarantined,omitempty"`
	// Records counts records fed through detection on this shard,
	// from every path (Feed, FeedBatch, pipeline workers).
	Records uint64 `json:"records"`
	// Anomalies counts detections on this shard.
	Anomalies uint64 `json:"anomalies"`
	// Pipeline holds the shard's queue accounting (nil when the
	// Manager is not pipelined).
	Pipeline *PipelineStats `json:"pipeline,omitempty"`
}

// CheckpointStats records the Manager's checkpoint history: how many
// checkpoints committed, and the shape of the most recent one. The
// zero value means no checkpoint has committed since construction
// (restoring from a checkpoint does not count as one).
type CheckpointStats struct {
	// Checkpoints counts committed checkpoints since construction.
	Checkpoints uint64 `json:"checkpoints"`
	// Generation is the committed generation number of the last
	// checkpoint (the NNNNNNNN in its ckpt-NNNNNNNN directory).
	Generation int `json:"generation"`
	// LastStreams is the number of streams the last checkpoint wrote.
	LastStreams int `json:"lastStreams"`
	// LastDurationSeconds is the wall-clock cost of the last
	// checkpoint, drain included.
	LastDurationSeconds float64 `json:"lastDurationSeconds"`
	// LastAt is the commit time of the last checkpoint.
	LastAt time.Time `json:"lastAt"`
}

// ManagerStats is a point-in-time snapshot of a Manager's throughput
// and, when pipelined, queue state — the manager section of the
// serving layer's /v2/stats payload.
type ManagerStats struct {
	// Streams is the number of live streams.
	Streams int `json:"streams"`
	// Quarantined is the number of streams currently quarantined
	// after a contained panic (see ErrStreamQuarantined); quarantined
	// streams still count in Streams until Reopen retires them.
	Quarantined int `json:"quarantined,omitempty"`
	// Pipelined reports whether WithPipeline is active.
	Pipelined bool `json:"pipelined"`
	// Policy is the configured backpressure policy ("" when not
	// pipelined).
	Policy string `json:"policy,omitempty"`
	// Records, Anomalies, Enqueued, Dropped, Rejected and Failed
	// total the per-shard counters of the same names.
	Records   uint64 `json:"records"`
	Anomalies uint64 `json:"anomalies"`
	Enqueued  uint64 `json:"enqueued,omitempty"`
	Dropped   uint64 `json:"dropped,omitempty"`
	Rejected  uint64 `json:"rejected,omitempty"`
	Failed    uint64 `json:"failed,omitempty"`
	// Shards details each shard.
	Shards []ShardStats `json:"shards"`
	// Checkpoint summarizes checkpoint history (nil until the first
	// Checkpoint commits).
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
}

// Stats snapshots per-shard throughput, anomaly counts, and — on a
// pipelined Manager — queue depths and loss counters. Counters are
// cumulative since construction.
func (m *Manager) Stats() ManagerStats {
	out := ManagerStats{Shards: make([]ShardStats, len(m.shards))}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		ss := ShardStats{
			Shard:     i,
			Streams:   len(sh.streams),
			Records:   sh.records,
			Anomalies: sh.anomalies,
		}
		for _, ms := range sh.streams {
			if ms.quarantined {
				ss.Quarantined++
			}
		}
		sh.mu.Unlock()
		if m.pipe != nil {
			ps := &m.pipe.shards[i]
			pstats := PipelineStats{
				QueueDepth: len(ps.ch),
				QueueCap:   cap(ps.ch),
				Enqueued:   ps.enqueued.Load(),
				Dropped:    ps.dropped.Load(),
				Rejected:   ps.rejected.Load(),
				Failed:     ps.failed.Load(),
			}
			if e, ok := ps.lastErr.Load().(string); ok {
				pstats.LastError = e
			}
			ss.Pipeline = &pstats
			out.Enqueued += pstats.Enqueued
			out.Dropped += pstats.Dropped
			out.Rejected += pstats.Rejected
			out.Failed += pstats.Failed
		}
		out.Streams += ss.Streams
		out.Quarantined += ss.Quarantined
		out.Records += ss.Records
		out.Anomalies += ss.Anomalies
		out.Shards[i] = ss
	}
	if m.pipe != nil {
		out.Pipelined = true
		out.Policy = m.pipe.policy.String()
	}
	m.ckptStatsMu.Lock()
	if m.ckptStats.Checkpoints > 0 {
		cs := m.ckptStats
		out.Checkpoint = &cs
	}
	m.ckptStatsMu.Unlock()
	return out
}
