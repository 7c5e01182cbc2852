package tiresias

// Pipelined ingestion: per-shard worker goroutines behind bounded
// channels, so throughput scales with cores instead of callers. The
// synchronous FeedBatch path stays available on the same Manager;
// the pipeline adds an asynchronous EnqueueRuns path (EnqueueBatch is
// its one-stream form) with a configurable full-queue policy, drain
// barriers (Drain, and implicitly Checkpoint and Flush), and graceful
// shutdown (Close).
//
// A body is handed over batch-first: EnqueueRuns regroups the body's
// same-stream runs by stream into one pooled bodyBatch, laid out shard
// by shard, and queues one job per touched shard. A worker takes its
// shard lock once per job and feeds each stream's records as one
// contiguous stretch.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// BackpressurePolicy selects what EnqueueRuns does when a target
// shard's queue is full.
type BackpressurePolicy int

const (
	// Block waits until the queue has space: lossless, and the
	// natural choice when the producer can tolerate stalls (the
	// stall is the backpressure signal).
	Block BackpressurePolicy = iota
	// DropOldest evicts the oldest queued job to admit the new
	// one: bounded latency for live dashboards, with losses counted
	// in PipelineStats.Dropped rather than silently absorbed.
	DropOldest
	// ErrorWhenFull rejects the whole body with ErrQueueFull when any
	// of its shards' queues is full — nothing of it is queued —
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
// to queueDepth jobs (a job is one body's records for one shard), and
// EnqueueRuns/EnqueueBatch become usable. policy selects the
// full-queue behavior. A pipelined Manager owns goroutines: call Close
// when done with it.
func WithPipeline(queueDepth int, policy BackpressurePolicy) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) {
		o.queueDepth = queueDepth
		o.policy = policy
		o.pipelined = true
	})
}

// WithAnomalyIndex attaches a bounded AnomalyIndex to the Manager:
// every anomaly detected on any path — FeedBatch, Flush, or the
// pipeline workers — is recorded there tagged with its stream name,
// making detections queryable after the fact (time range, subtree,
// stream) instead of vanishing with the FeedBatch return value.
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

// ErrQueueFull is returned by EnqueueRuns and EnqueueBatch under the
// ErrorWhenFull policy when a target shard's queue is full.
var ErrQueueFull = errors.New("tiresias: pipeline queue full")

// ErrPipelineClosed is returned by EnqueueRuns and EnqueueBatch after
// Close.
var ErrPipelineClosed = errors.New("tiresias: pipeline closed")

// ErrNotPipelined is returned by EnqueueRuns and EnqueueBatch on a
// Manager built without WithPipeline.
var ErrNotPipelined = errors.New("tiresias: manager is not pipelined (use WithPipeline)")

// StreamRun closes one run of consecutive same-stream records of a
// body handed to EnqueueRuns: the run is recs[previous End:End] (the
// first run starts at 0) and its records belong to Stream.
type StreamRun struct {
	Stream string
	End    int
}

// maxPooledRecords and maxPooledStreams bound what a pooled bodyBatch
// may keep: a batch one outsized body grew past either is left to the
// collector, so a hostile body cannot make every later body clear a
// huge map or pin a huge array.
const (
	maxPooledRecords = 1 << 15
	maxPooledStreams = 1 << 10
)

// batchGroup is one stream's records of a body: bodyBatch.recs[lo:lo+n].
type batchGroup struct {
	stream string
	shard  int
	lo, n  int
	next   int // layout cursor: where the stream's next run is copied
}

// bodyBatch is one body's records regrouped by stream — each stream's
// records one contiguous slice, in body order — with the groups laid
// out shard by shard. The body's jobs share it; refs counts the
// holders still to finish with it (the enqueuer and every queued job),
// and the last one returns it to the pool.
type bodyBatch struct {
	refs   atomic.Int32
	recs   []Record
	groups []batchGroup // in the body's first-appearance order
	laid   []int32      // group indexes, shard by shard
	jobs   []pipeJob    // one per touched shard

	// Layout scratch: stream → group index, run → group index.
	byStream map[string]int32
	runGroup []int32
}

// pipeJob is one unit of worker input: a body's stream groups on one
// shard, or a drain barrier (batch nil, barrier non-nil).
type pipeJob struct {
	batch   *bodyBatch
	groups  []int32 // indexes into batch.groups, all on shard
	shard   int
	n       int // records in the job
	barrier chan<- struct{}
}

// pipeShard is the queue and loss accounting in front of one manager
// shard's worker.
type pipeShard struct {
	ch       chan pipeJob
	enqueued atomic.Uint64          // records accepted into the queue
	dropped  atomic.Uint64          // records evicted under DropOldest
	rejected atomic.Uint64          // records refused under ErrorWhenFull
	failed   atomic.Uint64          // records a worker feed rejected
	lastErr  atomic.Pointer[string] // most recent worker feed error
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

	// admitMu makes an ErrorWhenFull admission atomic: the body's room
	// check and its sends happen under it, and so does every drain
	// barrier send, so no send can take a slot between the check and
	// the body's sends (workers only ever free slots).
	admitMu sync.Mutex

	// batches pools bodyBatches; out counts the ones taken and not yet
	// finished with.
	batches sync.Pool
	out     atomic.Int64
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

// worker drains one shard's queue, finishing each job's reference to
// its batch once the job is fed.
func (p *pipeline) worker(i int) {
	defer p.wg.Done()
	ps := &p.shards[i]
	sh := &p.m.shards[i]
	for job := range ps.ch {
		if job.barrier != nil {
			job.barrier <- struct{}{}
			continue
		}
		p.feed(sh, ps, job)
		p.release(job.batch)
	}
}

// feed feeds one job's stream groups under a single hold of the shard
// lock: per group one stream lookup, one quarantine check and one
// panic barrier (feedLocked). Record errors cannot be returned to the
// (long gone) enqueuer, so they are counted and latched into the
// shard's stats instead of lost. A record-level error (out-of-order
// arrival, gap bound) poisons only that record: the worker resumes the
// group past it, mirroring the documented caller-resume semantics of
// the synchronous FeedBatch — one displaced record must not silently
// discard the rest of its stream's records. Stream-level errors
// (quarantine, tombstone) are terminal for the group and only for it:
// every remaining record of that stream would fail identically, so
// they are counted failed in one step, and the job's other streams are
// fed as usual.
func (p *pipeline) feed(sh *managerShard, ps *pipeShard, job pipeJob) {
	b := job.batch
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, gi := range job.groups {
		g := &b.groups[gi]
		recs := b.recs[g.lo : g.lo+g.n]
		for len(recs) > 0 {
			_, n, err := p.m.feedLocked(sh, g.stream, recs)
			if err == nil {
				break
			}
			msg := err.Error()
			ps.lastErr.Store(&msg)
			if errors.Is(err, ErrStreamQuarantined) || errors.Is(err, ErrStreamDropped) {
				ps.failed.Add(uint64(len(recs) - n))
				break
			}
			ps.failed.Add(1) // the offending record at index n
			recs = recs[n+1:]
		}
	}
}

// batch takes a bodyBatch from the pool, holding the enqueuer's
// reference.
func (p *pipeline) batch() *bodyBatch {
	b, _ := p.batches.Get().(*bodyBatch)
	if b == nil {
		b = &bodyBatch{byStream: make(map[string]int32)}
	}
	b.refs.Store(1)
	p.out.Add(1)
	return b
}

// release finishes one reference to b; the last one returns b to the
// pool if it is poolable.
func (p *pipeline) release(b *bodyBatch) {
	if b.refs.Add(-1) != 0 {
		return
	}
	p.out.Add(-1)
	if b.poolable() {
		p.batches.Put(b)
	}
}

// poolable reports whether b stayed within the pooling caps.
func (b *bodyBatch) poolable() bool {
	return cap(b.recs) <= maxPooledRecords && len(b.groups) <= maxPooledStreams
}

// layout copies recs into b regrouped by stream: the runs are grouped
// by stream in first-appearance order, each stream's records become
// one contiguous slice in body order, the groups are laid out shard by
// shard, and b.jobs gets one job per touched shard. runs must cut recs
// into non-empty runs.
func (b *bodyBatch) layout(m *Manager, recs []Record, runs []StreamRun) error {
	clear(b.byStream)
	b.groups, b.runGroup, b.jobs = b.groups[:0], b.runGroup[:0], b.jobs[:0]
	lo := 0
	for i, run := range runs {
		if run.End <= lo || run.End > len(recs) {
			return fmt.Errorf("tiresias: run %d ends at %d, want (%d, %d]", i, run.End, lo, len(recs))
		}
		gi, ok := b.byStream[run.Stream]
		if !ok {
			gi = int32(len(b.groups))
			b.byStream[run.Stream] = gi
			b.groups = append(b.groups, batchGroup{stream: run.Stream, shard: m.shardIndex(run.Stream)})
		}
		b.groups[gi].n += run.End - lo
		b.runGroup = append(b.runGroup, gi)
		lo = run.End
	}
	if lo != len(recs) {
		return fmt.Errorf("tiresias: runs cover %d of %d records", lo, len(recs))
	}

	// Lay the groups out shard by shard, in first-appearance order
	// within a shard, place their records, and cut one job per shard.
	b.laid = b.laid[:0]
	for gi := range b.groups {
		b.laid = append(b.laid, int32(gi))
	}
	slices.SortStableFunc(b.laid, func(x, y int32) int { return b.groups[x].shard - b.groups[y].shard })
	at, first := 0, 0
	for k, gi := range b.laid {
		g := &b.groups[gi]
		g.lo, g.next = at, at
		at += g.n
		if k+1 == len(b.laid) || b.groups[b.laid[k+1]].shard != g.shard {
			b.jobs = append(b.jobs, pipeJob{batch: b, groups: b.laid[first : k+1], shard: g.shard, n: at - b.groups[b.laid[first]].lo})
			first = k + 1
		}
	}
	b.recs = slices.Grow(b.recs[:0], len(recs))[:len(recs)]
	lo = 0
	for i, run := range runs {
		g := &b.groups[b.runGroup[i]]
		g.next += copy(b.recs[g.next:], recs[lo:run.End])
		lo = run.End
	}
	return nil
}

// enqueue lays one body out in a pooled batch and queues one job per
// touched shard under the configured backpressure policy, returning
// the records of the jobs queued. ctx bounds the wait: a Block policy
// send unblocks on cancellation, and the DropOldest eviction loop
// checks it between attempts. context.Background() (whose Done channel
// is nil, so the cancel select arm never fires) waits without bound.
func (p *pipeline) enqueue(ctx context.Context, recs []Record, runs []StreamRun) (accepted int, err error) {
	b := p.batch()
	defer p.release(b)
	if err := b.layout(p.m, recs, runs); err != nil {
		return 0, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return 0, ErrPipelineClosed
	}
	if p.policy == ErrorWhenFull {
		return p.admit(b)
	}
	for _, job := range b.jobs {
		if err := p.send(ctx, job); err != nil {
			return accepted, err
		}
		accepted += job.n
	}
	return accepted, nil
}

// admit is ErrorWhenFull's enqueue: all of b's jobs or none. Under
// admitMu no other send can take a slot, so a room check on every
// touched shard decides the whole body; a refused body is counted
// rejected on every shard it touched. The caller holds mu for reading.
func (p *pipeline) admit(b *bodyBatch) (accepted int, err error) {
	p.admitMu.Lock()
	defer p.admitMu.Unlock()
	for _, job := range b.jobs {
		if ps := &p.shards[job.shard]; len(ps.ch) == cap(ps.ch) {
			for _, job := range b.jobs {
				p.shards[job.shard].rejected.Add(uint64(job.n))
			}
			return 0, ErrQueueFull
		}
	}
	for _, job := range b.jobs {
		ps := &p.shards[job.shard]
		b.refs.Add(1)
		ps.ch <- job // room checked above
		ps.enqueued.Add(uint64(job.n))
		accepted += job.n
	}
	return accepted, nil
}

// send queues one job under Block or DropOldest. The caller holds mu
// for reading and a reference to the job's batch.
func (p *pipeline) send(ctx context.Context, job pipeJob) error {
	ps := &p.shards[job.shard]
	job.batch.refs.Add(1) // the queued job's; the worker finishes it
	var err error
	if p.policy == DropOldest {
		err = p.sendEvicting(ctx, ps, job)
	} else {
		select {
		case ps.ch <- job:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err != nil {
		job.batch.refs.Add(-1) // never queued; the caller's reference keeps b
		return err
	}
	ps.enqueued.Add(uint64(job.n))
	return nil
}

// sendEvicting is DropOldest's send: it evicts the oldest queued job
// until the new one fits, checking ctx between attempts.
func (p *pipeline) sendEvicting(ctx context.Context, ps *pipeShard, job pipeJob) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case ps.ch <- job:
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
				ps.dropped.Add(uint64(old.n))
				p.release(old.batch)
			}
		default:
			// A worker beat us to the oldest entry; retry the send.
		}
	}
}

// drain inserts a barrier into every shard queue and waits until each
// worker reaches its barrier: on return, every record enqueued before
// the call has been processed (or, under DropOldest, dropped and
// counted). Each barrier is sent under admitMu, so it cannot take the
// slot an ErrorWhenFull admission has just checked. Returns immediately
// on a closed pipeline — Close already drained it.
func (p *pipeline) drain() {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return
	}
	done := make(chan struct{}, len(p.shards))
	for i := range p.shards {
		p.admitMu.Lock()
		p.shards[i].ch <- pipeJob{barrier: done}
		p.admitMu.Unlock()
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

// EnqueueRuns hands one body of records to the pipeline and returns
// without waiting for detection. runs cuts recs into non-empty runs of
// consecutive same-stream records — the shape an ingest decoder emits
// — and a stream may have several runs in one body. Both slices are
// only borrowed: the records are copied into a pooled batch before
// EnqueueRuns returns, so the caller may reuse them at once.
//
// The body is regrouped by stream, each stream's records kept in body
// order, so the in-order requirement of FeedBatch carries over per stream;
// it is queued as one job per shard it touches. A shard's worker feeds
// the body's streams group by group, in the order each first appears
// in the body, so the AnomalyIndex cursors of different streams on one
// shard follow stream groups, not body order. Per-stream order is
// unchanged.
//
// When a target shard's queue is full the configured
// BackpressurePolicy decides. ErrorWhenFull is all-or-nothing: if any
// touched shard's queue is full, nothing of the body is queued, the
// whole body counts in PipelineStats.Rejected, and EnqueueRuns returns
// 0 and ErrQueueFull, so retrying the body cannot apply a record
// twice. Block waits, and a send that would wait unblocks when ctx is
// done and returns ctx.Err(); DropOldest evicts the oldest queued job
// (counted in PipelineStats.Dropped), checking ctx between eviction
// attempts. A ctx that is already done is refused before any queue
// interaction.
//
// A partial failure is whole streams, not a body-order prefix: when
// Block's ctx ends part-way, the shards queued so far keep their jobs
// and accepted counts their records — every record of some of the
// body's streams and none of the others. Cancellation never
// un-enqueues: accepted records are processed (or dropped and counted,
// under DropOldest) regardless of ctx. After Close, EnqueueRuns
// accepts nothing and returns ErrPipelineClosed; on a non-pipelined
// Manager, ErrNotPipelined. (The synchronous FeedBatch reports a
// body-order prefix instead.)
//
// Detection results are delivered through the detectors' sinks and
// the Manager's AnomalyIndex, not a return value. A worker-side feed
// error is counted and latched in Stats rather than returned: an
// out-of-order or gap-violating record fails alone, and a dropped or
// quarantined stream fails its own records only.
func (m *Manager) EnqueueRuns(ctx context.Context, recs []Record, runs []StreamRun) (accepted int, err error) {
	if m.pipe == nil {
		return 0, ErrNotPipelined
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return m.pipe.enqueue(ctx, recs, runs)
}

// EnqueueBatch is EnqueueRuns for one stream's records, without a
// deadline: it hands recs, in time order, to the pipeline and returns
// without waiting for detection. The records are copied, so the caller
// keeps recs.
func (m *Manager) EnqueueBatch(streamName string, recs []Record) error {
	_, err := m.EnqueueRuns(context.Background(), recs, []StreamRun{{Stream: streamName, End: len(recs)}})
	return err
}

// Drain blocks until every record enqueued before the call has been
// processed (or dropped, under DropOldest). It does not stop the
// workers: ingestion continues normally afterwards. On a
// non-pipelined or closed Manager, Drain is a no-op. Use it to order
// enqueued records against a read — e.g. before querying the
// AnomalyIndex in tests, or before Flush.
func (m *Manager) Drain() {
	if m.pipe != nil {
		m.pipe.drain()
	}
}

// Close gracefully shuts the pipeline down: no new records are
// accepted (EnqueueRuns returns ErrPipelineClosed), queued records
// are drained through detection, and the worker goroutines exit
// before Close returns. Close is idempotent and safe to call
// concurrently with enqueuers. The Manager itself stays usable — the
// synchronous FeedBatch/Flush/Checkpoint paths are unaffected.
// Close does not flush partial timeunits; call Flush per stream if
// stream end is meant.
func (m *Manager) Close() error {
	if m.pipe != nil {
		m.pipe.close()
	}
	return nil
}

// PipelineStats aggregates the queue-level accounting of one shard's
// pipeline (all counters are records, not jobs).
type PipelineStats struct {
	// QueueDepth is the number of jobs currently waiting; a job is one
	// enqueued body's records for this shard.
	QueueDepth int `json:"queueDepth"`
	// QueueCap is the configured queue capacity in jobs.
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
	// from every path (FeedBatch, pipeline workers).
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
	// LastBytes is the total size of the stream files the last
	// checkpoint wrote.
	LastBytes int64 `json:"lastBytes"`
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
			if e := ps.lastErr.Load(); e != nil {
				pstats.LastError = *e
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
