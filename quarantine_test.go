package tiresias

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tiresias/internal/fault"
)

// panickingManager builds a Manager whose "bad" stream carries a sink
// that panics via trig; every other stream gets a plain detector.
func panickingManager(t *testing.T, shards int, trig *fault.Panic, mopts ...ManagerOption) *Manager {
	t.Helper()
	detOpts := func(extra ...Option) []Option {
		return append([]Option{
			WithDelta(time.Minute),
			WithWindowLen(8),
			WithTheta(0.5),
			WithSeasonality(1.0, 4),
			WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		}, extra...)
	}
	opts := append([]ManagerOption{
		WithShards(shards),
		withFactory(func(name string) (*Tiresias, error) {
			if name == "bad" {
				return New(detOpts(WithSink(SinkFuncs{Unit: func(UnitEvent) { trig.Poke() }}))...)
			}
			return New(detOpts()...)
		}),
	}, mopts...)
	m, err := NewManager(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// feedUntilQuarantine feeds one record per timeunit into streamName
// until the feed reports quarantine, failing the test if it never
// does within units.
func feedUntilQuarantine(t *testing.T, m *Manager, streamName string, units int) error {
	t.Helper()
	base := start()
	for u := 0; u < units; u++ {
		_, err := feed(m, streamName, Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)})
		if err != nil {
			if !errors.Is(err, ErrStreamQuarantined) {
				t.Fatalf("unit %d: err = %v, want ErrStreamQuarantined", u, err)
			}
			return err
		}
	}
	t.Fatalf("no quarantine within %d units", units)
	return nil
}

// TestFeedPanicQuarantinesStream is the containment contract end to
// end: a panic escaping one stream's sink quarantines that stream —
// and only that stream — instead of killing the process; the
// quarantine is observable everywhere (Feed error, StreamStatus,
// Stats, Quarantined) and Reopen retires it.
func TestFeedPanicQuarantinesStream(t *testing.T) {
	trig := fault.NewPanic(1, "sink exploded")
	m := panickingManager(t, 4, trig)

	err := feedUntilQuarantine(t, m, "bad", 40)
	if !trig.Fired() {
		t.Fatal("trigger never fired")
	}
	if !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("quarantine error must carry the panic value, got %v", err)
	}

	// The stream now refuses records without touching the detector.
	pokes := trig.Pokes()
	if _, err := feed(m, "bad", Record{Path: []string{"pop"}, Time: start().Add(time.Hour)}); !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("feed of quarantined stream = %v, want ErrStreamQuarantined", err)
	}
	if _, _, err := m.FeedBatch("bad", []Record{{Path: []string{"pop"}, Time: start().Add(time.Hour)}}); !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("batch feed of quarantined stream = %v, want ErrStreamQuarantined", err)
	}
	if _, err := m.Flush("bad"); !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("flush of quarantined stream = %v, want ErrStreamQuarantined", err)
	}
	if trig.Pokes() != pokes {
		t.Fatal("quarantined stream's sink was poked again")
	}

	// The rest of the fleet keeps serving.
	if anoms := feedUnits(t, m, "good", 40, 20); len(anoms) == 0 {
		t.Fatal("healthy stream stopped detecting after sibling quarantine")
	}

	// Quarantine is observable on every status surface.
	st := m.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	q := m.Quarantined()
	if len(q) != 1 || q[0].Name != "bad" || !q[0].Quarantined || !strings.Contains(q[0].QuarantineReason, "sink exploded") {
		t.Fatalf("Quarantined() = %+v", q)
	}
	one, hh, ok := m.Stream("bad")
	if !ok || !one.Quarantined || hh != nil {
		t.Fatalf("Stream(bad) = %+v hh=%v ok=%v; want quarantined with nil heavy hitters", one, hh, ok)
	}

	// Reopen retires the quarantined state exactly once; the name
	// restarts cold.
	if !m.Reopen("bad") {
		t.Fatal("Reopen must report the quarantine it cleared")
	}
	if m.Reopen("bad") {
		t.Fatal("second Reopen must report nothing to clear")
	}
	if m.Stats().Quarantined != 0 {
		t.Fatal("quarantine count must drop after Reopen")
	}
	if _, err := feed(m, "bad", Record{Path: []string{"pop"}, Time: start().Add(2 * time.Hour)}); err != nil {
		t.Fatalf("feed after Reopen = %v", err)
	}
	for _, s := range m.Streams() {
		if s.Name == "bad" && (s.Warm || s.Quarantined) {
			t.Fatalf("reopened stream must restart cold and clean: %+v", s)
		}
	}

	t.Logf("chaos-summary: quarantine/feed: 1 injected panic contained, fleet kept serving, Reopen recovered")
}

// TestFeedBatchPanicQuarantines pins the partial-progress contract: a
// panic mid-batch quarantines the stream and the applied count covers
// exactly the records fed before the panic.
func TestFeedBatchPanicQuarantines(t *testing.T) {
	trig := fault.NewPanic(1, "batch boom")
	m := panickingManager(t, 2, trig)
	recs := unitRecords(40, 0)
	for i := range recs {
		recs[i].Path = []string{"pop", "edge"}
	}
	_, applied, err := m.FeedBatch("bad", recs)
	if !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("err = %v, want ErrStreamQuarantined", err)
	}
	if applied <= 0 || applied >= len(recs) {
		t.Fatalf("applied = %d, want partial progress in (0, %d)", applied, len(recs))
	}
	if !trig.Fired() {
		t.Fatal("trigger never fired")
	}
	t.Logf("chaos-summary: quarantine/batch: panic at record %d of %d contained", applied, len(recs))
}

// TestFlushPanicQuarantines covers the third synchronous ingestion
// path: a panic during the flush-forced screening quarantines too.
func TestFlushPanicQuarantines(t *testing.T) {
	const units = 20
	feedN := func(m *Manager) {
		t.Helper()
		base := start()
		for u := 0; u < units; u++ {
			if _, err := feed(m, "bad", Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)}); err != nil {
				t.Fatalf("unit %d: %v", u, err)
			}
		}
	}
	// Probe run: count how often the sink fires for the feed alone
	// (warmup units never reach it), so the trigger can be armed on
	// exactly the poke the Flush adds.
	probe := fault.NewPanic(1<<40, "probe")
	feedN(panickingManager(t, 1, probe))

	trig := fault.NewPanic(probe.Pokes()+1, "flush boom")
	m := panickingManager(t, 1, trig)
	feedN(m)
	if trig.Fired() {
		t.Fatal("trigger fired before flush")
	}
	if _, err := m.Flush("bad"); !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("Flush = %v, want ErrStreamQuarantined", err)
	}
	if q := m.Quarantined(); len(q) != 1 {
		t.Fatalf("Quarantined() = %+v, want the flushed stream", q)
	}
}

// TestPipelineWorkerPanicContained proves the asynchronous path: a
// panic on a pipeline worker quarantines the stream, latches the
// error in Stats (the enqueuer is long gone), and the workers — all
// of them — keep draining other streams.
func TestPipelineWorkerPanicContained(t *testing.T) {
	trig := fault.NewPanic(1, "worker boom")
	m := panickingManager(t, 2, trig, WithPipeline(8, Block))
	recs := unitRecords(40, 0)
	for i := range recs {
		recs[i].Path = []string{"pop", "edge"}
	}
	if err := m.EnqueueBatch("bad", recs); err != nil {
		t.Fatal(err)
	}
	if err := m.EnqueueBatch("good", recs); err != nil {
		t.Fatal(err)
	}
	m.Drain()

	st := m.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Failed == 0 {
		t.Fatal("records lost to the quarantine must be counted as failed")
	}
	var lastErr string
	for _, ss := range st.Shards {
		if ss.Pipeline != nil && ss.Pipeline.LastError != "" {
			lastErr = ss.Pipeline.LastError
		}
	}
	if !strings.Contains(lastErr, "quarantined") {
		t.Fatalf("worker quarantine not latched in stats: %q", lastErr)
	}

	// The healthy stream was fully processed despite the sibling panic.
	if st.Records < uint64(len(recs)) {
		t.Fatalf("records = %d, want at least the healthy stream's %d", st.Records, len(recs))
	}
	// And the pipeline is still alive: more work drains fine.
	if err := m.EnqueueBatch("good", []Record{{Path: []string{"pop"}, Time: start().Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	t.Logf("chaos-summary: quarantine/pipeline: worker panic contained, %d failed records latched, workers kept draining", st.Failed)
}

// TestEnqueueContextCancel pins the context-aware enqueue path: a
// canceled context is refused up front, and a Block-policy send stuck
// against a full queue unblocks when the context dies instead of
// pinning the caller forever.
func TestEnqueueContextCancel(t *testing.T) {
	m := testManager(t, 1)
	// Inert pipeline (no workers): the queue never drains, so Block
	// genuinely blocks.
	m.pipe = &pipeline{m: m, policy: Block, shards: make([]pipeShard, 1)}
	m.pipe.shards[0].ch = make(chan pipeJob, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := []StreamRun{{Stream: "s", End: 1}}
	if n, err := m.EnqueueRuns(ctx, []Record{{Path: []string{"pop"}, Time: start()}}, run); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled enqueue = %d, %v, want 0, context.Canceled", n, err)
	}

	// Fill the queue, then block a send and cancel it.
	if err := m.EnqueueBatch("s", []Record{{Path: []string{"pop"}, Time: start()}}); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	t0 := time.Now()
	n, err := m.EnqueueRuns(ctx2, []Record{{Path: []string{"pop"}, Time: t0}}, run)
	if n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked enqueue = %d, %v, want 0, context.DeadlineExceeded", n, err)
	}
	if got := m.pipe.out.Load(); got != 1 {
		t.Fatalf("%d batches out, want only the queued one", got)
	}
	if time.Since(t0) > 5*time.Second {
		t.Fatal("cancellation did not unblock the send promptly")
	}
}
