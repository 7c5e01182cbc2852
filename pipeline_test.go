package tiresias

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// pipelineManager builds a pipelined test Manager with an attached
// index, mirroring testManager's detector configuration.
func pipelineManager(t *testing.T, shards, depth int, policy BackpressurePolicy, ix *AnomalyIndex) *Manager {
	t.Helper()
	opts := []ManagerOption{
		WithShards(shards),
		WithPipeline(depth, policy),
		WithDetectorOptions(
			WithDelta(time.Minute),
			WithWindowLen(8),
			WithTheta(0.5),
			WithSeasonality(1.0, 4),
			WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		),
	}
	if ix != nil {
		opts = append(opts, WithAnomalyIndex(ix))
	}
	m, err := NewManager(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// unitRecords generates records for units [0, units): one per unit,
// with burst extra records in burstUnit (0 = no burst).
func unitRecords(units, burstUnit int) []Record {
	base := start()
	var out []Record
	for u := 0; u < units; u++ {
		n := 1
		if burstUnit > 0 && u == burstUnit {
			n = 40
		}
		for i := 0; i < n; i++ {
			out = append(out, Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)})
		}
	}
	return out
}

func TestFeedBatchMatchesFeed(t *testing.T) {
	recs := unitRecords(40, 20)

	ref := testManager(t, 4)
	var want []Anomaly
	for _, r := range recs {
		anoms, err := feed(ref, "s", r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, anoms...)
	}

	m := testManager(t, 4)
	got, n, err := m.FeedBatch("s", recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("applied %d records, want %d", n, len(recs))
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("FeedBatch found %d anomalies, Feed found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("anomaly %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestFeedBatchPartialErrorReportsApplied(t *testing.T) {
	m := testManager(t, 1)
	base := start()
	recs := []Record{
		{Path: []string{"pop"}, Time: base.Add(2 * time.Minute)},
		{Path: []string{"pop"}, Time: base.Add(3 * time.Minute)},
		{Path: []string{"pop"}, Time: base}, // out of order
		{Path: []string{"pop"}, Time: base.Add(4 * time.Minute)},
	}
	_, n, err := m.FeedBatch("s", recs)
	if err == nil {
		t.Fatal("out-of-order record must fail the batch")
	}
	if n != 2 {
		t.Fatalf("applied = %d, want 2", n)
	}
	// The stream remains usable past the bad record.
	if _, _, err := m.FeedBatch("s", recs[3:]); err != nil {
		t.Fatal(err)
	}
}

func TestFeedAfterDropReturnsError(t *testing.T) {
	m := testManager(t, 4)
	feedUnits(t, m, "tenant", 12, 0)
	if !m.Drop("tenant") {
		t.Fatal("Drop must report existence")
	}
	_, err := feed(m, "tenant", Record{Path: []string{"pop"}, Time: start().Add(time.Hour)})
	if !errors.Is(err, ErrStreamDropped) {
		t.Fatalf("Feed after Drop = %v, want ErrStreamDropped", err)
	}
	if _, _, err := m.FeedBatch("tenant", unitRecords(2, 0)); !errors.Is(err, ErrStreamDropped) {
		t.Fatalf("FeedBatch after Drop = %v, want ErrStreamDropped", err)
	}
	// Other streams are unaffected; a never-dropped name still works.
	if _, err := feed(m, "other", Record{Path: []string{"pop"}, Time: start()}); err != nil {
		t.Fatal(err)
	}
	// Reopen clears the tombstone exactly once; the stream restarts cold.
	if !m.Reopen("tenant") || m.Reopen("tenant") {
		t.Fatal("Reopen must clear exactly once")
	}
	if _, err := feed(m, "tenant", Record{Path: []string{"pop"}, Time: start().Add(time.Hour)}); err != nil {
		t.Fatalf("Feed after Reopen = %v", err)
	}
	for _, st := range m.Streams() {
		if st.Name == "tenant" && st.Warm {
			t.Fatal("reopened stream must restart cold")
		}
	}
}

func TestDropUnknownLeavesNoTombstone(t *testing.T) {
	m := testManager(t, 1)
	if m.Drop("ghost") {
		t.Fatal("Drop of unknown stream must report false")
	}
	if _, err := feed(m, "ghost", Record{Path: []string{"pop"}, Time: start()}); err != nil {
		t.Fatalf("unknown-stream Drop must not tombstone: %v", err)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	recs := unitRecords(40, 20)

	// Synchronous reference.
	ref := testManager(t, 4)
	var want []Anomaly
	for _, r := range recs {
		anoms, err := feed(ref, "s", r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, anoms...)
	}

	ix := NewAnomalyIndex(1024)
	m := pipelineManager(t, 4, 16, Block, ix)
	// Enqueue in chunks to exercise batching.
	for i := 0; i < len(recs); i += 7 {
		if err := m.EnqueueBatch("s", recs[i:min(i+7, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain()

	got := ix.Query(AnomalyQuery{Stream: "s"})
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("index has %d anomalies, sync reference found %d", len(got), len(want))
	}
	// Query returns newest first; the reference is oldest first.
	for i := range got {
		if got[i].Anomaly != want[len(want)-1-i] {
			t.Fatalf("anomaly %d differs: %+v vs %+v", i, got[i].Anomaly, want[len(want)-1-i])
		}
	}

	st := m.Stats()
	if !st.Pipelined || st.Policy != "block" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Enqueued != uint64(len(recs)) || st.Records != uint64(len(recs)) {
		t.Fatalf("enqueued %d, records %d, want %d", st.Enqueued, st.Records, len(recs))
	}
	if st.Dropped != 0 || st.Rejected != 0 || st.Failed != 0 {
		t.Fatalf("lossless block policy lost records: %+v", st)
	}
	if st.Anomalies != uint64(len(want)) {
		t.Fatalf("stats anomalies = %d, want %d", st.Anomalies, len(want))
	}
}

func TestPipelineWorkerErrorsLatchedInStats(t *testing.T) {
	m := pipelineManager(t, 2, 8, Block, nil)
	base := start()
	if err := m.EnqueueBatch("s", []Record{{Path: []string{"pop"}, Time: base.Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	// Out of order: rejected by the worker, surfaced in stats.
	if err := m.EnqueueBatch("s", []Record{{Path: []string{"pop"}, Time: base}}); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	st := m.Stats()
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
	var lastErr string
	for _, ss := range st.Shards {
		if ss.Pipeline != nil && ss.Pipeline.LastError != "" {
			lastErr = ss.Pipeline.LastError
		}
	}
	if lastErr == "" {
		t.Fatal("worker error not latched in shard stats")
	}
}

// TestPipelineWorkerResumesBatchPastBadRecord pins the fix for batch
// poisoning: a single out-of-order record inside an enqueued batch
// must fail alone — the worker resumes the batch past it, exactly as
// a synchronous FeedBatch caller would using the applied count. The
// scenario suite exposed this: a displaced record in a flood workload
// silently discarded the rest of its batch in pipelined mode,
// diverging from the sync path.
func TestPipelineWorkerResumesBatchPastBadRecord(t *testing.T) {
	m := pipelineManager(t, 1, 8, Block, nil)
	base := start()
	recs := []Record{
		{Path: []string{"pop"}, Time: base},
		{Path: []string{"pop"}, Time: base.Add(time.Minute)},
		{Path: []string{"pop"}, Time: base}, // out of order: must fail alone
		{Path: []string{"pop"}, Time: base.Add(2 * time.Minute)},
		{Path: []string{"pop"}, Time: base.Add(3 * time.Minute)},
	}
	if err := m.EnqueueBatch("s", recs); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	st := m.Stats()
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (only the displaced record)", st.Failed)
	}
	if st.Records != uint64(len(recs)-1) {
		t.Fatalf("records = %d, want %d (batch resumed past the bad record)", st.Records, len(recs)-1)
	}
}

// TestPipelineWorkerStopsBatchOnTerminalError: stream-level errors
// are terminal for the batch — retrying record-by-record against a
// dropped stream would burn a shard worker for nothing.
func TestPipelineWorkerStopsBatchOnTerminalError(t *testing.T) {
	m := pipelineManager(t, 1, 8, Block, nil)
	base := start()
	if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: base}); err != nil {
		t.Fatal(err)
	}
	m.Drop("s")
	recs := []Record{
		{Path: []string{"pop"}, Time: base.Add(time.Minute)},
		{Path: []string{"pop"}, Time: base.Add(2 * time.Minute)},
		{Path: []string{"pop"}, Time: base.Add(3 * time.Minute)},
	}
	if err := m.EnqueueBatch("s", recs); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	if st := m.Stats(); st.Failed != uint64(len(recs)) {
		t.Fatalf("failed = %d, want %d (whole batch fails on tombstoned stream)", st.Failed, len(recs))
	}
}

// TestDropOldestAccuracy pins the drop counter at the queue level:
// with no worker consuming, overflowing a depth-Q queue by k
// single-record bodies must count exactly k drops, retain the newest Q
// jobs, and return every evicted body's batch to the pool.
func TestDropOldestAccuracy(t *testing.T) {
	m := testManager(t, 1)
	const depth, total = 4, 11
	p := &pipeline{m: m, policy: DropOldest, shards: make([]pipeShard, 1)}
	p.shards[0].ch = make(chan pipeJob, depth) // no worker: queue is inert
	base := start()
	for i := 0; i < total; i++ {
		rec := []Record{{Path: []string{"pop"}, Time: base.Add(time.Duration(i) * time.Minute)}}
		if _, err := p.enqueue(context.Background(), rec, []StreamRun{{Stream: "s", End: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	ps := &p.shards[0]
	if got := ps.dropped.Load(); got != total-depth {
		t.Fatalf("dropped = %d, want %d", got, total-depth)
	}
	if ps.enqueued.Load() != total {
		t.Fatalf("enqueued = %d, want %d", ps.enqueued.Load(), total)
	}
	if got := p.out.Load(); got != depth {
		t.Fatalf("%d batches out, want the %d queued", got, depth)
	}
	// The survivors are the newest `depth` jobs, in order.
	for i := 0; i < depth; i++ {
		job := <-ps.ch
		want := base.Add(time.Duration(total-depth+i) * time.Minute)
		if got := job.batch.recs[job.batch.groups[job.groups[0]].lo].Time; !got.Equal(want) {
			t.Fatalf("survivor %d has time %v, want %v", i, got, want)
		}
		p.release(job.batch)
	}
	if got := p.out.Load(); got != 0 {
		t.Fatalf("%d batches never went back to the pool", got)
	}
}

// TestErrorWhenFullAccuracy pins ErrQueueFull and the rejection
// counter at the queue level.
func TestErrorWhenFullAccuracy(t *testing.T) {
	m := testManager(t, 1)
	p := &pipeline{m: m, policy: ErrorWhenFull, shards: make([]pipeShard, 1)}
	p.shards[0].ch = make(chan pipeJob, 2)
	enqueue := func() (int, error) {
		return p.enqueue(context.Background(), []Record{{Path: []string{"pop"}, Time: start()}}, []StreamRun{{Stream: "s", End: 1}})
	}
	for i := 0; i < 2; i++ {
		if n, err := enqueue(); n != 1 || err != nil {
			t.Fatalf("enqueue %d = %d, %v", i, n, err)
		}
	}
	if n, err := enqueue(); n != 0 || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue = %d, %v, want 0, ErrQueueFull", n, err)
	}
	ps := &p.shards[0]
	if ps.rejected.Load() != 1 || ps.enqueued.Load() != 2 {
		t.Fatalf("rejected = %d, enqueued = %d", ps.rejected.Load(), ps.enqueued.Load())
	}
}

// TestDropOldestEndToEnd checks the loss-accounting invariant with
// live workers: every enqueued record is either processed or counted
// as dropped/failed — none vanish.
func TestDropOldestEndToEnd(t *testing.T) {
	m := pipelineManager(t, 2, 2, DropOldest, nil)
	streams := []string{"a", "b", "c", "d"}
	for round := 0; round < 50; round++ {
		for _, s := range streams {
			rec := Record{Path: []string{"pop"}, Time: start().Add(time.Duration(round) * time.Minute)}
			if err := m.EnqueueBatch(s, []Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Drain()
	st := m.Stats()
	if st.Enqueued != 200 {
		t.Fatalf("enqueued = %d, want 200", st.Enqueued)
	}
	if st.Records+st.Dropped+st.Failed != st.Enqueued {
		t.Fatalf("records %d + dropped %d + failed %d != enqueued %d",
			st.Records, st.Dropped, st.Failed, st.Enqueued)
	}
}

// TestBlockPolicyLossless floods a tiny queue from several goroutines
// and verifies nothing is lost and nothing rejected.
func TestBlockPolicyLossless(t *testing.T) {
	m := pipelineManager(t, 4, 1, Block, nil)
	var wg sync.WaitGroup
	const producers, perProducer = 4, 100
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			for i := 0; i < perProducer; i++ {
				rec := Record{Path: []string{"pop"}, Time: start().Add(time.Duration(i) * time.Minute)}
				if err := m.EnqueueBatch(name, []Record{rec}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m.Drain()
	st := m.Stats()
	if st.Records != producers*perProducer || st.Dropped != 0 || st.Rejected != 0 || st.Failed != 0 {
		t.Fatalf("block policy stats = %+v", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	m := pipelineManager(t, 2, 64, Block, nil)
	for i := 0; i < 100; i++ {
		rec := Record{Path: []string{"pop"}, Time: start().Add(time.Duration(i) * time.Minute)}
		if err := m.EnqueueBatch("s", []Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drained the queue through detection.
	if st := m.Stats(); st.Records != 100 {
		t.Fatalf("records after Close = %d, want 100", st.Records)
	}
	if err := m.EnqueueBatch("s", []Record{{Path: []string{"pop"}, Time: start().Add(200 * time.Minute)}}); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("EnqueueBatch after Close = %v, want ErrPipelineClosed", err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Synchronous paths still work after Close.
	if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: start().Add(300 * time.Minute)}); err != nil {
		t.Fatal(err)
	}
	// Drain on a closed pipeline is a no-op, not a hang.
	m.Drain()
}

func TestEnqueueOnSynchronousManager(t *testing.T) {
	m := testManager(t, 1)
	if err := m.EnqueueBatch("s", []Record{{Path: []string{"pop"}, Time: start()}}); !errors.Is(err, ErrNotPipelined) {
		t.Fatalf("EnqueueBatch = %v, want ErrNotPipelined", err)
	}
	m.Drain()     // no-op
	_ = m.Close() // no-op
	if m.Stats().Pipelined {
		t.Fatal("synchronous manager reports pipelined stats")
	}
}

func TestNewManagerRejectsBadPipelineConfig(t *testing.T) {
	if _, err := NewManager(WithPipeline(0, Block)); err == nil {
		t.Fatal("queue depth 0 must be rejected")
	}
	if _, err := NewManager(WithPipeline(8, BackpressurePolicy(42))); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

// TestConcurrentFeedBatchAndCheckpoint interleaves batched feeding of
// many streams with repeated checkpoints under -race, then restores
// the final checkpoint and verifies it is internally consistent.
func TestConcurrentFeedBatchAndCheckpoint(t *testing.T) {
	m := testManager(t, 4)
	dir := t.TempDir()
	const feeders = 4
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			recs := unitRecords(30, 15)
			for i := 0; i < len(recs); i += 5 {
				end := min(i+5, len(recs))
				if _, _, err := m.FeedBatch(name, recs[i:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := m.Checkpoint(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	r, err := ManagerFromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != feeders {
		t.Fatalf("restored %d streams, want %d", r.Len(), feeders)
	}
	wantSts := streamsByName(m.Streams())
	for name, got := range streamsByName(r.Streams()) {
		if got != wantSts[name] {
			t.Fatalf("restored %s = %+v, want %+v", name, got, wantSts[name])
		}
	}
}

func streamsByName(sts []StreamStatus) map[string]StreamStatus {
	out := make(map[string]StreamStatus, len(sts))
	for _, st := range sts {
		out[st.Name] = st
	}
	return out
}

// TestCheckpointDrainsPipeline verifies the checkpoint barrier: every
// record enqueued before Checkpoint is in the checkpoint, so a
// restored Manager matches a synchronous twin exactly.
func TestCheckpointDrainsPipeline(t *testing.T) {
	recs := unitRecords(30, 15)

	ref := testManager(t, 4)
	if _, _, err := ref.FeedBatch("s", recs); err != nil {
		t.Fatal(err)
	}

	m := pipelineManager(t, 4, 256, Block, nil)
	for _, r := range recs {
		if err := m.EnqueueBatch("s", []Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	// No explicit Drain: Checkpoint itself must flush the queues.
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	r, err := ManagerFromCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, want := streamsByName(r.Streams())["s"], streamsByName(ref.Streams())["s"]
	if got != want {
		t.Fatalf("restored stream = %+v, want %+v", got, want)
	}
}

// TestConcurrentEnqueueAndCheckpoint races pipelined ingestion against
// checkpoints under -race; correctness here is "no race, no deadlock,
// restorable result".
func TestConcurrentEnqueueAndCheckpoint(t *testing.T) {
	m := pipelineManager(t, 4, 8, Block, nil)
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			for _, r := range unitRecords(25, 0) {
				if err := m.EnqueueBatch(name, []Record{r}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := m.Checkpoint(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	m.Drain()
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ManagerFromCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
}
