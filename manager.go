package tiresias

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/fault"
	"tiresias/internal/stream"
)

// Manager multiplexes many independent record streams, each with its
// own Tiresias detector, behind one concurrent Feed hot path. Streams
// are created lazily on first Feed and partitioned across shards by
// name hash; each shard has its own mutex, so feeders of different
// shards never contend. Manager is safe for concurrent use.
type Manager struct {
	shards  []managerShard
	factory func(stream string) (*Tiresias, error)
	maxGap  int

	// pipe is the asynchronous ingestion layer (nil unless built
	// with WithPipeline); index is the attached anomaly store (nil
	// unless built with WithAnomalyIndex); observer is the live
	// subscription hook fed with every indexed entry (nil unless
	// built with WithAnomalyObserver).
	pipe     *pipeline
	index    *AnomalyIndex
	observer func([]AnomalyEntry)

	// detectorOpts is the raw Option set given via WithDetectorOptions,
	// retained so ManagerFromCheckpoint can re-apply it (sinks, ...) to
	// restored detectors; nil when a bare factory was supplied.
	detectorOpts []Option

	// stepObs is the engine-step instrumentation hook (nil unless
	// built with WithStepObserver); it is copied onto each managed
	// stream at creation and restore so the hot path reads it without
	// touching the Manager.
	stepObs func(StageTimings)

	// ckptStatsMu guards ckptStats; a dedicated mutex so Stats never
	// blocks behind an in-flight Checkpoint (which holds ckptMu for
	// its whole duration).
	ckptStatsMu sync.Mutex
	ckptStats   CheckpointStats // guarded by ckptStatsMu

	// ckptMu serializes Checkpoint calls, so a periodic checkpoint
	// timer racing an on-demand trigger cannot interleave generation
	// writes in the same directory.
	ckptMu sync.Mutex

	// fsys is the filesystem the checkpoint subsystem performs its
	// I/O through: fault.OS in production, a fault.Injector in the
	// crash-point audits (see withFS).
	fsys fault.FS
}

type managerShard struct {
	mu sync.Mutex

	// streams holds the shard's live detectors, guarded by mu.
	streams map[string]*managedStream

	// dropped tombstones stream names removed by Drop, so a late
	// Feed cannot silently respawn a fresh (cold, warmup-restarting)
	// detector under a retired name; see ErrStreamDropped. Guarded
	// by mu.
	dropped map[string]struct{}

	// records / anomalies count detection throughput on this shard
	// across every ingestion path; both guarded by mu.
	records   uint64 // guarded by mu
	anomalies uint64 // guarded by mu
}

// getOrCreate returns the named stream, creating its detector and
// windower on first use. The shard lock must be held. A tombstoned
// name (see Drop) is refused with ErrStreamDropped.
func (sh *managerShard) getOrCreate(m *Manager, streamName string) (*managedStream, error) {
	if ms, ok := sh.streams[streamName]; ok {
		return ms, nil
	}
	if _, dead := sh.dropped[streamName]; dead {
		return nil, fmt.Errorf("tiresias: stream %q: %w", streamName, ErrStreamDropped)
	}
	det, err := m.factory(streamName)
	if err != nil {
		return nil, fmt.Errorf("tiresias: stream %q: %w", streamName, err)
	}
	w, err := stream.NewWindower(det.Delta())
	if err != nil {
		return nil, err
	}
	// The windower interns paths into the detector's tree and emits
	// pooled dense units, so the warm per-record path is
	// allocation-free; the Manager-level gap bound guards the ingest
	// endpoint.
	w.SetMaxGap(m.maxGap)
	w.BindTree(det.tree)
	ms := &managedStream{det: det, w: w, stepObs: m.stepObs}
	sh.streams[streamName] = ms
	return ms, nil
}

// managedStream is one tenant: a detector plus its windowing state.
// All fields are accessed under the owning shard's lock.
type managedStream struct {
	det     *Tiresias
	w       *stream.Windower
	warmBuf []Timeunit
	first   startClock
	dirty   bool // current timeunit has records since the last Flush
	units   int  // detection units processed
	anoms   int  // anomalies detected

	// quarantined latches that a panic escaped this stream's
	// detector, windower, or sink mid-feed; quarReason records the
	// panic value. A quarantined stream refuses records with
	// ErrStreamQuarantined and is excluded from checkpoints — its
	// state was interrupted mid-update and cannot be trusted. Reopen
	// retires it. See quarantine.go.
	quarantined bool
	quarReason  string

	// stepObs, when non-nil, receives the engine stage timings of
	// every completed detection step (copied from the Manager's
	// WithStepObserver hook). Called under the shard lock.
	stepObs func(StageTimings)
}

// managerOptions collects Manager configuration.
type managerOptions struct {
	shards       int
	maxGap       int
	factory      func(stream string) (*Tiresias, error)
	detectorOpts []Option
	pipelined    bool
	queueDepth   int
	policy       BackpressurePolicy
	index        *AnomalyIndex
	observer     func([]AnomalyEntry)
	stepObs      func(StageTimings)
	fsys         fault.FS
}

// withFS substitutes the filesystem the Manager's checkpoint I/O runs
// on. Deliberately unexported: the only intended non-OS filesystem is
// the fault injector of the crash-point audits.
func withFS(fsys fault.FS) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.fsys = fsys })
}

// DefaultMaxGap bounds how many timeunits a single record may
// force-complete when it jumps past the current unit (gap filling
// across quiet periods). It caps the work and allocation one
// bad-timestamp record can trigger — important when Feed is wired to
// an ingest endpoint. Both Run and Manager.Feed enforce it unless
// overridden with WithMaxGap.
const DefaultMaxGap = 100_000

// ManagerOption configures NewManager.
type ManagerOption interface {
	applyManager(*managerOptions)
}

// managerOptionFunc adapts a plain function to ManagerOption.
type managerOptionFunc func(*managerOptions)

func (f managerOptionFunc) applyManager(o *managerOptions) { f(o) }

// WithShards sets the number of lock shards (default 16). More shards
// means less contention between concurrent feeders; the stream count
// is not bounded by it.
func WithShards(n int) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.shards = n })
}

// GapOption is the value returned by WithMaxGap; it configures both a
// single detector (Option, applied to Run's windowing) and a Manager
// (ManagerOption, applied to every managed stream's windowing).
type GapOption int

func (g GapOption) apply(o *options)               { o.maxGap = int(g) }
func (g GapOption) applyManager(o *managerOptions) { o.maxGap = int(g) }

// WithMaxGap bounds gap filling: when a record's timestamp jumps past
// the current timeunit, the windower emits one empty timeunit per
// elapsed Δ (so seasonal phase and timestamps stay honest across quiet
// periods), and each emitted unit is screened like any other. A single
// record may force-complete at most n such units; a record further in
// the future than n·Δ is rejected with an error (stream.ErrMaxGap)
// before any windowing state changes, so the stream stays usable at
// sane timestamps. n <= 0 disables the bound entirely — acceptable
// only for trusted feeds, since one bad far-future timestamp then
// fabricates unbounded empty units. The default is DefaultMaxGap.
//
// The returned GapOption deliberately implements both option
// interfaces, so the same knob governs every ingestion path: pass it
// to New and it bounds that detector's Run windowing (and is carried
// through Snapshot/Restore); pass it to NewManager or
// ManagerFromCheckpoint and it bounds every managed stream's Feed
// windowing.
func WithMaxGap(n int) GapOption { return GapOption(n) }

// WithDetectorFactory supplies the constructor invoked for each new
// stream name; use it when streams need heterogeneous configuration.
func WithDetectorFactory(f func(stream string) (*Tiresias, error)) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) { o.factory = f })
}

// WithDetectorOptions configures every stream's detector with the same
// Option set — the common homogeneous-fleet case. Unlike a bare
// WithDetectorFactory, the Option set is also re-applied to detectors
// restored by ManagerFromCheckpoint (re-attaching sinks after a
// restart).
func WithDetectorOptions(opts ...Option) ManagerOption {
	return managerOptionFunc(func(o *managerOptions) {
		o.detectorOpts = opts
		o.factory = func(string) (*Tiresias, error) { return New(opts...) }
	})
}

// NewManager builds an empty sharded Manager. Without a factory,
// detectors use the package defaults.
func NewManager(opts ...ManagerOption) (*Manager, error) {
	o := managerOptions{shards: 16, maxGap: DefaultMaxGap}
	for _, op := range opts {
		op.applyManager(&o)
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("tiresias: shards must be >= 1, got %d", o.shards)
	}
	if o.factory == nil {
		o.factory = func(string) (*Tiresias, error) { return New() }
	}
	if o.pipelined && o.queueDepth < 1 {
		return nil, fmt.Errorf("tiresias: pipeline queue depth must be >= 1, got %d", o.queueDepth)
	}
	switch o.policy {
	case Block, DropOldest, ErrorWhenFull:
	default:
		return nil, fmt.Errorf("tiresias: unknown backpressure policy %v", o.policy)
	}
	if o.observer != nil && o.index == nil {
		return nil, fmt.Errorf("tiresias: WithAnomalyObserver requires WithAnomalyIndex (the index assigns the entry cursors the observer receives)")
	}
	if o.fsys == nil {
		o.fsys = fault.OS{}
	}
	m := &Manager{
		shards:       make([]managerShard, o.shards),
		factory:      o.factory,
		maxGap:       o.maxGap,
		detectorOpts: o.detectorOpts,
		index:        o.index,
		observer:     o.observer,
		stepObs:      o.stepObs,
		fsys:         o.fsys,
	}
	for i := range m.shards {
		m.shards[i].streams = make(map[string]*managedStream) //tiresias:ignore lockguard (construction before publication; no other goroutine can hold a shard yet)
	}
	if o.pipelined {
		m.pipe = newPipeline(m, o.queueDepth, o.policy)
	}
	return m, nil
}

// shardIndex picks the shard number by FNV-1a of the name, inlined so
// the Feed hot path allocates nothing.
func (m *Manager) shardIndex(name string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return int(h % uint32(len(m.shards)))
}

func (m *Manager) shardOf(name string) *managerShard {
	return &m.shards[m.shardIndex(name)]
}

// Feed ingests one record into the named stream, creating the stream's
// detector on first use. Completed timeunits warm the detector until
// its window is full and are screened afterwards; anomalies detected
// by this call are returned (and delivered to the detector's sinks
// and the Manager's AnomalyIndex, if configured). Records within one
// stream must arrive in time order; different streams are fully
// independent. Feeding a stream removed by Drop returns
// ErrStreamDropped (see Drop for the rationale and Reopen for the
// escape hatch); feeding a quarantined stream returns
// ErrStreamQuarantined (see quarantine.go).
//
// A panic escaping the stream's detector, windower, or sinks is
// contained: the stream is quarantined, Feed returns
// ErrStreamQuarantined, and the process — including every other
// stream — keeps running.
//
// Feed is FeedBatch of one record.
func (m *Manager) Feed(streamName string, r Record) ([]Anomaly, error) {
	out, _, err := m.FeedBatch(streamName, []Record{r})
	return out, err
}

// FeedBatch ingests a batch of records (in time order) into the named
// stream through one shard lookup and one lock acquisition — the
// synchronous fast path for bulk ingest endpoints and replay. It is
// equivalent to calling Feed per record: anomalies of all completed
// timeunits are returned in order, and sinks/index delivery is
// identical. On a record error the batch stops there; the returned
// count is the number of records applied, so a caller can resume past
// the offending record.
func (m *Manager) FeedBatch(streamName string, recs []Record) ([]Anomaly, int, error) {
	if len(recs) == 0 {
		return nil, 0, nil
	}
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.feedLocked(sh, streamName, recs)
}

// feedLocked feeds recs into the named stream of shard sh until the
// first record error; it is the body of both FeedBatch and the
// pipeline workers, so the two paths cannot drift. It contains
// panics: the offending stream is quarantined, records
// already applied stay counted, and the caller gets
// ErrStreamQuarantined with the applied count.
// The shard lock must be held.
func (m *Manager) feedLocked(sh *managerShard, streamName string, recs []Record) (out []Anomaly, applied int, err error) {
	ms, err := sh.getOrCreate(m, streamName)
	if err != nil {
		return nil, 0, err
	}
	if ms.quarantined {
		return nil, 0, quarantineErr(streamName, ms.quarReason)
	}
	defer containPanic(streamName, ms, &err)
	for _, r := range recs {
		anoms, ferr := ms.feed(r)
		out = append(out, anoms...)
		if ferr != nil {
			sh.records += uint64(applied)
			sh.anomalies += uint64(len(out))
			m.record(streamName, out)
			return out, applied, fmt.Errorf("tiresias: stream %q: record %d: %w", streamName, applied, ferr)
		}
		applied++
	}
	sh.records += uint64(applied)
	sh.anomalies += uint64(len(out))
	m.record(streamName, out)
	return out, applied, nil
}

// feed ingests one record into the stream: windowing plus detection
// of any completed units. The shard lock must be held.
func (ms *managedStream) feed(r Record) ([]Anomaly, error) {
	done, err := ms.w.ObserveDense(r)
	if err != nil {
		return nil, err
	}
	ms.first.observe(ms.w)
	ms.dirty = true
	var out []Anomaly
	for _, u := range done {
		anoms, err := ms.advance(u)
		if err != nil {
			return out, err
		}
		out = append(out, anoms...)
	}
	return out, nil
}

// record appends detections to the attached AnomalyIndex, if any,
// and forwards the indexed entries (now carrying their sequence-
// number cursors) to the anomaly observer. The observer runs under
// the shard lock, so it must not block; a subscription fan-out
// buffers or drops, it never waits.
func (m *Manager) record(streamName string, anoms []Anomaly) {
	if m.index == nil || len(anoms) == 0 {
		return
	}
	entries := m.index.Add(streamName, anoms...)
	if m.observer != nil {
		m.observer(entries)
	}
}

// advance routes one completed dense unit of a managed stream.
func (ms *managedStream) advance(u *algo.DenseUnit) ([]Anomaly, error) {
	sr, err := ms.det.ingestUnitDense(u, &ms.warmBuf, ms.first.at)
	if err != nil || sr == nil {
		return nil, err
	}
	ms.units++
	ms.anoms += len(sr.Anomalies)
	if ms.stepObs != nil && sr.State != nil {
		ms.stepObs(sr.State.Timings)
	}
	return sr.Anomalies, nil
}

// Flush completes the named stream's current partial timeunit and
// screens it, returning any anomalies. Use it at stream end or on a
// deadline when no boundary-crossing record will arrive. Flushing an
// unknown stream, or one with no records since the last flush, is a
// no-op — repeated deadline flushes never fabricate empty units. Note
// that flushing finalizes the current unit: later records must be at
// or past the next unit's start or they are rejected as out-of-order.
//
// On a pipelined Manager, Flush first drains the pipeline, so records
// enqueued before the call are windowed before the unit is finalized
// (otherwise they would arrive after their unit closed and be rejected
// as out-of-order).
func (m *Manager) Flush(streamName string) (anoms []Anomaly, err error) {
	if m.pipe != nil {
		m.pipe.drain()
	}
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms, ok := sh.streams[streamName]
	if !ok || !ms.first.seen || !ms.dirty {
		return nil, nil
	}
	if ms.quarantined {
		return nil, quarantineErr(streamName, ms.quarReason)
	}
	defer containPanic(streamName, ms, &err)
	ms.dirty = false
	anoms, ferr := ms.advance(ms.w.FlushDense())
	sh.anomalies += uint64(len(anoms))
	m.record(streamName, anoms)
	if ferr != nil {
		return anoms, fmt.Errorf("tiresias: stream %q: %w", streamName, ferr)
	}
	return anoms, nil
}

// ErrStreamDropped is returned by Feed, FeedBatch, and the pipeline
// workers (latched in Stats) when records arrive for a stream removed
// by Drop. Test with errors.Is.
var ErrStreamDropped = errors.New("tiresias: stream was dropped")

// Drop removes the named stream and its detector, reporting whether
// it existed. The name is tombstoned: a later Feed of the same name
// returns ErrStreamDropped instead of silently respawning a cold
// detector — without the tombstone, one straggler record after a
// Drop would restart a full warmup window under the retired name and
// report bogus statuses for weeks. Call Reopen to clear the tombstone
// when re-use is intended. Tombstones are in-memory only: they do not
// survive Checkpoint/ManagerFromCheckpoint.
func (m *Manager) Drop(streamName string) bool {
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.streams[streamName]
	if ok {
		if sh.dropped == nil {
			sh.dropped = make(map[string]struct{})
		}
		sh.dropped[streamName] = struct{}{}
	}
	delete(sh.streams, streamName)
	return ok
}

// Reopen clears the tombstone Drop left for the named stream, and
// retires the stream's quarantined state if a panic quarantined it
// (see ErrStreamQuarantined), reporting whether either existed. After
// Reopen the next Feed lazily creates a fresh detector (cold, full
// warmup) under the name — the quarantined detector's state is
// discarded, never resumed.
func (m *Manager) Reopen(streamName string) bool {
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, dead := sh.dropped[streamName]
	delete(sh.dropped, streamName)
	if ms, ok := sh.streams[streamName]; ok && ms.quarantined {
		delete(sh.streams, streamName)
		return true
	}
	return dead
}

// Len returns the number of live streams.
func (m *Manager) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.streams)
		sh.mu.Unlock()
	}
	return n
}

// StreamStatus is a point-in-time snapshot of one managed stream.
type StreamStatus struct {
	// Name is the stream name given to Feed.
	Name string `json:"name"`
	// Warm reports whether the detector finished warmup.
	Warm bool `json:"warm"`
	// Units is the number of detection timeunits processed.
	Units int `json:"units"`
	// Anomalies is the total number of detections so far.
	Anomalies int `json:"anomalies"`
	// PendingWarmup is the number of buffered warmup units (0 once
	// warm).
	PendingWarmup int `json:"pendingWarmup"`
	// UnitStart is the start of the current (incomplete) timeunit.
	UnitStart time.Time `json:"unitStart"`
	// Quarantined reports that a panic escaped this stream's detector
	// and it now refuses records (see ErrStreamQuarantined).
	Quarantined bool `json:"quarantined,omitempty"`
	// QuarantineReason records the panic value that caused the
	// quarantine; empty unless Quarantined.
	QuarantineReason string `json:"quarantineReason,omitempty"`
}

// status snapshots the stream's StreamStatus. The shard lock must be
// held. Single construction site, so Streams and Stream cannot
// drift.
func (ms *managedStream) status(name string) StreamStatus {
	return StreamStatus{
		Name:             name,
		Warm:             ms.det.Warm(),
		Units:            ms.units,
		Anomalies:        ms.anoms,
		PendingWarmup:    len(ms.warmBuf),
		UnitStart:        ms.w.Start(),
		Quarantined:      ms.quarantined,
		QuarantineReason: ms.quarReason,
	}
}

// Streams snapshots every live stream, sorted by name.
func (m *Manager) Streams() []StreamStatus {
	var out []StreamStatus
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for name, ms := range sh.streams {
			out = append(out, ms.status(name))
		}
		sh.mu.Unlock()
	}
	sortStatuses(out)
	return out
}

// sortStatuses orders stream snapshots by name, the stable order
// every fleet-wide read (Streams, Quarantined) presents.
func sortStatuses(sts []StreamStatus) {
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
}

// Stream snapshots one managed stream by name together with its
// current SHHH membership keys (the hierarchical heavy hitters of
// its most recently processed timeunit), reporting whether the
// stream exists — the per-stream detail read behind the serving
// layer's GET /v2/streams/{id}, taken atomically under one shard
// lock. hh is a copy; nil with ok == true means the stream has not
// finished warmup (or is quarantined — a quarantined detector's
// interrupted state is not read).
func (m *Manager) Stream(streamName string) (st StreamStatus, hh []Key, ok bool) {
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms, ok := sh.streams[streamName]
	if !ok {
		return StreamStatus{}, nil, false
	}
	if ms.quarantined {
		return ms.status(streamName), nil, true
	}
	return ms.status(streamName), ms.det.HeavyHitters(), true
}

// HeavyHitters returns the named stream's current SHHH membership
// keys, reporting whether the stream exists — Stream without the
// status snapshot. The slice is a copy; nil with ok == true means
// the stream has not finished warmup or is quarantined. This surfaces per-stream
// Tiresias.HeavyHitters through the Manager, so embedders can read
// it without reaching into detectors.
func (m *Manager) HeavyHitters(streamName string) (keys []Key, ok bool) {
	sh := m.shardOf(streamName)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms, ok := sh.streams[streamName]
	if !ok {
		return nil, false
	}
	if ms.quarantined {
		return nil, true
	}
	return ms.det.HeavyHitters(), true
}
