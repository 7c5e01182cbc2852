package tiresias

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestStepObserverSeesEveryStep verifies a unit sink given through
// WithDetectorOptions observes the stage timings of every completed
// detection step on the synchronous path, and is re-attached to the
// streams a checkpoint/restore cycle brings back.
func TestStepObserverSeesEveryStep(t *testing.T) {
	steps, timed := 0, 0
	stepSink := func(n *int) Option {
		return WithSink(SinkFuncs{Unit: func(ev UnitEvent) {
			*n++
			if ev.Timings.Total() > 0 {
				timed++
			}
		}})
	}
	detOpts := func(extra Option) []Option {
		return []Option{
			WithDelta(time.Minute),
			WithWindowLen(8),
			WithTheta(0.5),
			WithSeasonality(1.0, 4),
			WithThresholds(Thresholds{RT: 2.0, DT: 5}),
			extra,
		}
	}
	m, err := NewManager(WithShards(2), WithDetectorOptions(detOpts(stepSink(&steps))...))
	if err != nil {
		t.Fatal(err)
	}
	feedUnits(t, m, "obs", 40, 20)
	// Warmup units are buffered, not stepped; every post-warmup unit
	// is observed, once: 40 records complete 39 units, the first 8
	// warm the window.
	if steps != 31 {
		t.Fatalf("unit sink fired %d times, want 31", steps)
	}
	if timed == 0 {
		t.Fatal("no unit event carried stage timings")
	}

	dir := t.TempDir()
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Checkpoint == nil {
		t.Fatal("Stats().Checkpoint nil after Checkpoint")
	}
	if st.Checkpoint.Checkpoints != 1 || st.Checkpoint.Generation != 1 {
		t.Fatalf("checkpoint stats = %+v", st.Checkpoint)
	}
	if st.Checkpoint.LastStreams != 1 || st.Checkpoint.LastAt.IsZero() {
		t.Fatalf("checkpoint stats = %+v", st.Checkpoint)
	}
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Checkpoint.Checkpoints != 2 || st.Checkpoint.Generation != 2 {
		t.Fatalf("checkpoint stats after second checkpoint = %+v", st.Checkpoint)
	}
	// LastBytes is the size of the stream files the generation holds.
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-00000002", "*"+checkpointExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("generation 2 stream files %v (err %v), want 1", files, err)
	}
	if fi, err := os.Stat(files[0]); err != nil || st.Checkpoint.LastBytes != fi.Size() {
		t.Fatalf("LastBytes = %d, stream file %v (err %v)", st.Checkpoint.LastBytes, fi, err)
	}

	// A restored Manager re-attaches the sink to restored streams.
	restoredSteps := 0
	m2, err := ManagerFromCheckpoint(dir, WithShards(2), WithDetectorOptions(detOpts(stepSink(&restoredSteps))...))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Stats().Checkpoint != nil {
		t.Fatal("restored Manager must start with zero checkpoint stats")
	}
	base := start()
	for u := 40; u < 45; u++ {
		if _, err := feed(m2, "obs", Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	if restoredSteps == 0 {
		t.Fatal("unit sink not re-attached to restored stream")
	}
}
