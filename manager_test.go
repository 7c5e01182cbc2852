package tiresias

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// feed ingests one record through FeedBatch.
func feed(m *Manager, streamName string, r Record) ([]Anomaly, error) {
	out, _, err := m.FeedBatch(streamName, []Record{r})
	return out, err
}

// feedUnits pushes one record per timeunit into a managed stream:
// steady rate, with a burst at burstUnit (0 = no burst). Returns all
// anomalies the feeds produced.
func feedUnits(t *testing.T, m *Manager, streamName string, units int, burstUnit int) []Anomaly {
	t.Helper()
	var out []Anomaly
	base := start()
	for u := 0; u < units; u++ {
		n := 1
		if burstUnit > 0 && u == burstUnit {
			n = 40
		}
		for i := 0; i < n; i++ {
			anoms, err := feed(m, streamName, Record{
				Path: []string{"pop", "edge"},
				Time: base.Add(time.Duration(u) * time.Minute),
			})
			if err != nil {
				t.Errorf("stream %s unit %d: %v", streamName, u, err)
				return out
			}
			out = append(out, anoms...)
		}
	}
	return out
}

func testManager(t *testing.T, shards int) *Manager {
	t.Helper()
	m, err := NewManager(
		WithShards(shards),
		WithDetectorOptions(
			WithDelta(time.Minute),
			WithWindowLen(8),
			WithTheta(0.5),
			WithSeasonality(1.0, 4),
			WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerWarmsThenDetects(t *testing.T) {
	m := testManager(t, 4)
	anoms := feedUnits(t, m, "tenant-a", 40, 20)
	if len(anoms) == 0 {
		t.Fatal("burst not detected through Feed")
	}
	sts := m.Streams()
	if len(sts) != 1 || sts[0].Name != "tenant-a" {
		t.Fatalf("Streams() = %+v", sts)
	}
	st := sts[0]
	if !st.Warm {
		t.Fatal("stream should be warm after 40 units")
	}
	// 40 records span units 0..39; unit 39 is still open, 8 warmed.
	if st.Units != 39-8 {
		t.Fatalf("status units = %d, want %d", st.Units, 39-8)
	}
	if st.Anomalies != len(anoms) {
		t.Fatalf("status anomalies = %d, want %d", st.Anomalies, len(anoms))
	}
	if st.PendingWarmup != 0 {
		t.Fatalf("pending warmup = %d after warm", st.PendingWarmup)
	}
}

func TestManagerStreamsAreIndependent(t *testing.T) {
	m := testManager(t, 4)
	feedUnits(t, m, "quiet", 40, 0)
	burstAnoms := feedUnits(t, m, "bursty", 40, 25)
	if len(burstAnoms) == 0 {
		t.Fatal("bursty stream not flagged")
	}
	for _, st := range m.Streams() {
		if st.Name == "quiet" && st.Anomalies > 2 {
			t.Fatalf("quiet stream has %d anomalies", st.Anomalies)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", m.Len())
	}
	if !m.Drop("quiet") || m.Drop("quiet") {
		t.Fatal("Drop must remove exactly once")
	}
	if m.Len() != 1 {
		t.Fatalf("Len() after Drop = %d, want 1", m.Len())
	}
}

func TestManagerFlush(t *testing.T) {
	m := testManager(t, 1)
	// 20 units warm (8) + screen; the burst sits in the final,
	// still-open unit and only Flush can surface it.
	base := start()
	for u := 0; u < 20; u++ {
		if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: base.Add(time.Duration(u) * time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: base.Add(19*time.Minute + 30*time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	anoms, err := m.Flush("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(anoms) == 0 {
		t.Fatal("Flush missed the partial-unit burst")
	}
	// Unknown stream: no-op.
	if anoms, err := m.Flush("nope"); err != nil || anoms != nil {
		t.Fatalf("Flush(unknown) = %v, %v", anoms, err)
	}
}

func TestManagerOutOfOrderRecord(t *testing.T) {
	m := testManager(t, 2)
	base := start()
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base}); err == nil {
		t.Fatal("out-of-order record must error")
	}
}

func TestManagerFactoryError(t *testing.T) {
	bad := errors.New("nope")
	m, err := NewManager(withFactory(func(string) (*Tiresias, error) { return nil, bad }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: start()}); !errors.Is(err, bad) {
		t.Fatalf("Feed with failing factory = %v, want wrapped factory error", err)
	}
	if _, err := NewManager(WithShards(0)); err == nil {
		t.Fatal("zero shards must be rejected")
	}
}

// TestManagerConcurrentFeeders hammers Feed from many goroutines (one
// stream each, as in-stream order must hold) while another goroutine
// polls Streams — the -race acceptance test for the sharded hot path.
func TestManagerConcurrentFeeders(t *testing.T) {
	const feeders = 8
	m := testManager(t, 4) // fewer shards than feeders: forced sharing
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Streams()
				m.Len()
			}
		}
	}()
	var wg sync.WaitGroup
	results := make([][]Anomaly, feeders)
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			results[f] = feedUnits(t, m, fmt.Sprintf("tenant-%d", f), 60, 30)
		}(f)
	}
	wg.Wait()
	close(stop)
	poller.Wait()
	if m.Len() != feeders {
		t.Fatalf("Len() = %d, want %d", m.Len(), feeders)
	}
	for f, anoms := range results {
		if len(anoms) == 0 {
			t.Fatalf("feeder %d detected nothing", f)
		}
	}
}

func TestManagerMaxGapBound(t *testing.T) {
	m, err := NewManager(
		WithDetectorOptions(WithDelta(time.Minute), WithWindowLen(8), WithTheta(0.5), WithSeasonality(1.0, 4), WithMaxGap(100)),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := start()
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base}); err != nil {
		t.Fatal(err)
	}
	// Within the bound: gap-filling works.
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base.Add(50 * time.Minute)}); err != nil {
		t.Fatal(err)
	}
	// A timestamp jumping 200 units ahead must be rejected, not
	// gap-filled (DoS guard for ingest endpoints).
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base.Add(200 * time.Minute)}); err == nil {
		t.Fatal("record beyond max gap must be rejected")
	}
	// The stream is still usable at sane timestamps.
	if _, err := feed(m, "s", Record{Path: []string{"p"}, Time: base.Add(51 * time.Minute)}); err != nil {
		t.Fatalf("stream unusable after rejected record: %v", err)
	}
}

func TestManagerFlushIdempotent(t *testing.T) {
	m := testManager(t, 1)
	base := start()
	for u := 0; u < 20; u++ {
		if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: base.Add(time.Duration(u) * time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush("s"); err != nil {
		t.Fatal(err)
	}
	unitsAfterFirst := m.Streams()[0].Units
	// Deadline-driven flushes with no new records must not fabricate
	// empty units or advance the stream clock.
	for i := 0; i < 3; i++ {
		anoms, err := m.Flush("s")
		if err != nil {
			t.Fatal(err)
		}
		if anoms != nil {
			t.Fatalf("repeat Flush produced anomalies: %v", anoms)
		}
	}
	if got := m.Streams()[0].Units; got != unitsAfterFirst {
		t.Fatalf("repeat Flush advanced units %d -> %d", unitsAfterFirst, got)
	}
	// New records keep flowing after the flushes.
	if _, err := feed(m, "s", Record{Path: []string{"pop"}, Time: base.Add(25 * time.Minute)}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerStreamAndHeavyHitters(t *testing.T) {
	m := testManager(t, 4)
	feedUnits(t, m, "tenant-a", 40, 20)
	st, shh, ok := m.Stream("tenant-a")
	if !ok || st.Name != "tenant-a" || !st.Warm || st.Units == 0 || len(shh) == 0 {
		t.Fatalf("Stream = %+v, hh %v, %v", st, shh, ok)
	}
	if _, _, ok := m.Stream("nope"); ok {
		t.Fatal("unknown stream must report ok == false")
	}
	// A stream still warming up exists, with no heavy hitters yet.
	feedUnits(t, m, "tenant-b", 3, 0)
	if st, hh, ok := m.Stream("tenant-b"); !ok || st.Warm || hh != nil {
		t.Fatalf("Stream(tenant-b) = %+v, hh %v, %v; want a warming stream with nil heavy hitters", st, hh, ok)
	}
}

func TestManagerAnomalyObserver(t *testing.T) {
	ix := NewAnomalyIndex(64)
	var mu sync.Mutex
	var seen []AnomalyEntry
	m, err := NewManager(
		WithShards(2),
		WithAnomalyIndex(ix),
		WithAnomalyObserver(func(entries []AnomalyEntry) {
			mu.Lock()
			seen = append(seen, entries...)
			mu.Unlock()
		}),
		WithDetectorOptions(
			WithDelta(time.Minute), WithWindowLen(8), WithTheta(0.5),
			WithSeasonality(1.0, 4), WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	anoms := feedUnits(t, m, "obs", 40, 20)
	if len(anoms) == 0 {
		t.Fatal("burst not detected")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(anoms) {
		t.Fatalf("observer saw %d entries, Feed returned %d anomalies", len(seen), len(anoms))
	}
	for i, e := range seen {
		if e.Stream != "obs" || e.Seq == 0 {
			t.Fatalf("entry %d = %+v (want stream tag + assigned seq)", i, e)
		}
		if i > 0 && e.Seq <= seen[i-1].Seq {
			t.Fatalf("single-stream entries out of seq order: %d then %d", seen[i-1].Seq, e.Seq)
		}
	}
	if ix.Len() != len(anoms) {
		t.Fatalf("index holds %d, want %d", ix.Len(), len(anoms))
	}
}

func TestManagerObserverRequiresIndex(t *testing.T) {
	if _, err := NewManager(WithAnomalyObserver(func([]AnomalyEntry) {})); err == nil {
		t.Fatal("observer without index must fail NewManager")
	}
}

// TestManagerValidatesDetectorOptions: an Option set New refuses fails
// NewManager, and ManagerFromCheckpoint through it, instead of every
// stream's first Feed.
func TestManagerValidatesDetectorOptions(t *testing.T) {
	bad := WithDetectorOptions(WithWindowLen(96), WithTheta(0))
	if _, err := NewManager(bad); err == nil || !strings.Contains(err.Error(), "WithTheta") {
		t.Fatalf("NewManager with theta 0: error %v, want one naming WithTheta", err)
	}
	if _, err := ManagerFromCheckpoint(t.TempDir(), bad); err == nil || !strings.Contains(err.Error(), "WithTheta") {
		t.Fatalf("ManagerFromCheckpoint with theta 0: error %v, want one naming WithTheta", err)
	}
	if _, err := NewManager(WithDetectorOptions(WithWindowLen(96), WithTheta(1))); err != nil {
		t.Fatalf("a valid Option set: %v", err)
	}
}
