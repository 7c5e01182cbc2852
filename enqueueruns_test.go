package tiresias

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// indexedManager builds a Manager with testManager's detector
// configuration, an anomaly index, and the extra options.
func indexedManager(t *testing.T, shards int, extra ...ManagerOption) (*Manager, *AnomalyIndex) {
	t.Helper()
	ix := NewAnomalyIndex(1 << 16)
	opts := append([]ManagerOption{
		WithShards(shards),
		WithAnomalyIndex(ix),
		WithDetectorOptions(
			WithDelta(time.Minute),
			WithWindowLen(8),
			WithTheta(0.5),
			WithSeasonality(1.0, 4),
			WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		),
	}, extra...)
	m, err := NewManager(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ix
}

// fleetBody is one merged ingest body: records of many streams
// interleaved by time, with its same-stream runs.
type fleetBody struct {
	recs []Record
	runs []StreamRun
}

// mergedBodies renders units minutes of traffic of a fleet of streams,
// merged by time and cut into bodies of perBody records. In unit u
// stream s sends 1 + (s+u)%3 records over four paths, and 30 in unit
// 16 + s%8, so every stream warms up and then bursts.
func mergedBodies(streams, units, perBody int) []fleetBody {
	names := make([]string, streams)
	for s := range names {
		names[s] = fmt.Sprintf("s%02d", s)
	}
	paths := [][]string{{"pop", "edge0"}, {"pop", "edge1"}, {"pop", "edge2"}, {"pop", "edge3"}}
	var recs []Record
	var owner []string
	for u := 0; u < units; u++ {
		for i, more := 0, true; more; i++ {
			more = false
			for s := 0; s < streams; s++ {
				n := 1 + (s+u)%3
				if u == 16+s%8 {
					n = 30
				}
				if i >= n {
					continue
				}
				more = true
				at := start().Add(time.Duration(u)*time.Minute + time.Duration(i)*time.Second)
				recs = append(recs, Record{Path: paths[(s+i)%len(paths)], Time: at})
				owner = append(owner, names[s])
			}
		}
	}
	var out []fleetBody
	for lo := 0; lo < len(recs); lo += perBody {
		hi := min(lo+perBody, len(recs))
		out = append(out, fleetBody{recs: recs[lo:hi], runs: runsOf(owner[lo:hi])})
	}
	return out
}

// runsOf cuts a body's per-record stream names into same-stream runs.
func runsOf(owner []string) []StreamRun {
	var runs []StreamRun
	for i, name := range owner {
		if n := len(runs); n > 0 && runs[n-1].Stream == name {
			runs[n-1].End = i + 1
			continue
		}
		runs = append(runs, StreamRun{Stream: name, End: i + 1})
	}
	return runs
}

// feedRuns is the synchronous reference: FeedBatch once per run, in
// body order.
func feedRuns(t *testing.T, m *Manager, b fleetBody) {
	t.Helper()
	lo := 0
	for _, run := range b.runs {
		if _, _, err := m.FeedBatch(run.Stream, b.recs[lo:run.End]); err != nil {
			t.Fatal(err)
		}
		lo = run.End
	}
}

// sameDetections requires the two fleets to hold the same streams
// with the same statuses, and the same index entries per stream in the
// same order; cursors are compared only within a stream.
func sameDetections(t *testing.T, got *Manager, gotIx *AnomalyIndex, want *Manager, wantIx *AnomalyIndex) {
	t.Helper()
	gs, ws := got.Streams(), want.Streams()
	if !slices.Equal(gs, ws) {
		t.Fatalf("streams differ:\n got %+v\nwant %+v", gs, ws)
	}
	anomalies := 0
	for _, st := range ws {
		g := gotIx.Query(AnomalyQuery{Stream: st.Name})
		w := wantIx.Query(AnomalyQuery{Stream: st.Name})
		if len(g) != len(w) {
			t.Fatalf("stream %s: %d index entries, want %d", st.Name, len(g), len(w))
		}
		for i := range g {
			if g[i].Stream != w[i].Stream || g[i].Anomaly != w[i].Anomaly {
				t.Fatalf("stream %s entry %d = %+v, want %+v", st.Name, i, g[i], w[i])
			}
			if i > 0 && g[i].Seq >= g[i-1].Seq {
				t.Fatalf("stream %s: cursors out of order: %d after %d", st.Name, g[i].Seq, g[i-1].Seq)
			}
		}
		anomalies += len(w)
	}
	if gst, wst := got.Stats(), want.Stats(); gst.Records != wst.Records || gst.Anomalies != wst.Anomalies {
		t.Fatalf("records/anomalies = %d/%d, want %d/%d", gst.Records, gst.Anomalies, wst.Records, wst.Anomalies)
	}
	if anomalies == 0 {
		t.Fatal("the reference detected nothing: the comparison is vacuous")
	}
}

// TestEnqueueRunsMatchesSyncFeedBatch: merged 64-stream bodies through
// EnqueueRuns give every stream the anomalies, index entries and
// status that synchronous per-run FeedBatch gives it.
func TestEnqueueRunsMatchesSyncFeedBatch(t *testing.T) {
	bodies := mergedBodies(64, 40, 500)
	ref, refIx := indexedManager(t, 4)
	m, ix := indexedManager(t, 4, WithPipeline(2, Block))
	for _, b := range bodies {
		feedRuns(t, ref, b)
		n, err := m.EnqueueRuns(context.Background(), b.recs, b.runs)
		if err != nil || n != len(b.recs) {
			t.Fatalf("EnqueueRuns = %d, %v; want %d, nil", n, err, len(b.recs))
		}
	}
	m.Drain()
	sameDetections(t, m, ix, ref, refIx)
	if st := m.Stats(); st.Failed != 0 || st.Enqueued != st.Records {
		t.Fatalf("pipeline stats = %+v", st)
	}
	if n := m.pipe.out.Load(); n != 0 {
		t.Fatalf("%d batches never went back to the pool", n)
	}
}

// TestEnqueueRunsBorrowsCallerSlices scribbles over recs and runs as
// soon as EnqueueRuns returns: under -race any later read of them by
// the pipeline is a reported race, and the detections must not move.
func TestEnqueueRunsBorrowsCallerSlices(t *testing.T) {
	bodies := mergedBodies(64, 30, 400)
	ref, refIx := indexedManager(t, 4)
	m, ix := indexedManager(t, 4, WithPipeline(2, Block))
	for _, b := range bodies {
		feedRuns(t, ref, b)
		recs, runs := slices.Clone(b.recs), slices.Clone(b.runs)
		if _, err := m.EnqueueRuns(context.Background(), recs, runs); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			recs[i] = Record{Path: []string{"scribbled"}}
		}
		for i := range runs {
			runs[i] = StreamRun{Stream: "scribbled", End: len(recs)}
		}
	}
	m.Drain()
	sameDetections(t, m, ix, ref, refIx)
}

// unitGate is a sink that parks the first detection step it sees
// until open is closed.
type unitGate struct {
	once    sync.Once
	arrived chan struct{}
	open    chan struct{}
}

func (g *unitGate) OnAnomaly(Anomaly) {}
func (g *unitGate) OnUnit(UnitEvent) {
	g.once.Do(func() {
		close(g.arrived)
		<-g.open
	})
}

// TestEnqueueRunsDropOldestAccounting parks one worker inside
// detection and floods the fleet under DropOldest: every enqueued
// record is fed, dropped or failed, and every body's batch — evicted
// or fed — goes back to the pool.
func TestEnqueueRunsDropOldestAccounting(t *testing.T) {
	gate := &unitGate{arrived: make(chan struct{}), open: make(chan struct{})}
	m, err := NewManager(
		WithShards(4),
		WithPipeline(1, DropOldest),
		WithDetectorOptions(WithDelta(time.Minute), WithWindowLen(8), WithTheta(0.5), WithSink(gate)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bodies := mergedBodies(64, 30, 300)
	// Past unit 12 every stream the last body touches has warmed up
	// and stepped, so a worker reaches the gate.
	warm := slices.IndexFunc(bodies, func(b fleetBody) bool {
		return !b.recs[len(b.recs)-1].Time.Before(start().Add(12 * time.Minute))
	})
	for i, b := range bodies {
		if _, err := m.EnqueueRuns(context.Background(), b.recs, b.runs); err != nil {
			t.Fatal(err)
		}
		if i == warm {
			<-gate.arrived // workers park at their first step from here on
		}
	}
	close(gate.open)
	m.Drain()
	st := m.Stats()
	if st.Dropped == 0 {
		t.Fatal("a parked worker behind a depth-1 queue dropped nothing")
	}
	if st.Records+st.Dropped+st.Failed != st.Enqueued {
		t.Fatalf("records %d + dropped %d + failed %d != enqueued %d", st.Records, st.Dropped, st.Failed, st.Enqueued)
	}
	if n := m.pipe.out.Load(); n != 0 {
		t.Fatalf("%d batches never went back to the pool", n)
	}
}

// TestEnqueueRunsWarmBodyAllocatesNothing pins the pipelined path's
// allocation count for a warm 1000-record body of 64 merged streams:
// none, on the enqueuer or the workers. The body stays inside one
// hour-long unit, so no engine step runs.
func TestEnqueueRunsWarmBodyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled batches at random")
	}
	m, err := NewManager(
		WithShards(4),
		WithPipeline(8, Block),
		WithDetectorOptions(WithDelta(time.Hour), WithWindowLen(8), WithTheta(0.5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := mergedBodies(64, 10, 1000)[0]
	post := func() {
		if _, err := m.EnqueueRuns(context.Background(), b.recs, b.runs); err != nil {
			t.Fatal(err)
		}
		for m.pipe.out.Load() != 0 { // every job fed and its batch pooled
			runtime.Gosched()
		}
	}
	for i := 0; i < 20; i++ {
		post()
	}
	if allocs := testing.AllocsPerRun(100, post); allocs != 0 {
		t.Fatalf("%.1f allocations per warm body, want 0", allocs)
	}
	if st := m.Stats(); st.Failed != 0 || st.Records != st.Enqueued {
		t.Fatalf("pipeline stats = %+v", st)
	}
}

// TestEnqueueRunsRejectsBadRuns: runs must cut recs into non-empty
// runs; anything else is refused before a record is queued.
func TestEnqueueRunsRejectsBadRuns(t *testing.T) {
	m, _ := indexedManager(t, 2, WithPipeline(4, Block))
	recs := unitRecords(3, 0)
	for _, runs := range [][]StreamRun{
		nil,
		{{Stream: "a", End: 2}},
		{{Stream: "a", End: 4}},
		{{Stream: "a", End: 0}, {Stream: "b", End: 3}},
		{{Stream: "a", End: 2}, {Stream: "b", End: 1}, {Stream: "a", End: 3}},
	} {
		if n, err := m.EnqueueRuns(context.Background(), recs, runs); n != 0 || err == nil {
			t.Fatalf("runs %+v: EnqueueRuns = %d, %v; want an error", runs, n, err)
		}
	}
	m.Drain()
	if st := m.Stats(); st.Enqueued != 0 || st.Streams != 0 || m.pipe.out.Load() != 0 {
		t.Fatalf("a refused body left traces: %+v", st)
	}
}

// TestBodyBatchPoolingCaps: a batch that one outsized body grew past
// the record or stream cap is not pooled; an ordinary one is.
func TestBodyBatchPoolingCaps(t *testing.T) {
	m := testManager(t, 4)
	layout := func(streams, records int) *bodyBatch {
		recs := make([]Record, records)
		owner := make([]string, records)
		for i := range owner {
			owner[i] = fmt.Sprintf("s%d", i%streams)
		}
		b := &bodyBatch{byStream: make(map[string]int32)}
		if err := b.layout(m, recs, runsOf(owner)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		streams, records int
		pooled           bool
	}{
		{64, 1000, true},
		{maxPooledStreams, maxPooledStreams, true},
		{maxPooledStreams + 1, maxPooledStreams + 1, false},
		{1, maxPooledRecords + 1, false},
	} {
		if got := layout(tc.streams, tc.records).poolable(); got != tc.pooled {
			t.Fatalf("%d streams, %d records: poolable = %v, want %v", tc.streams, tc.records, got, tc.pooled)
		}
	}
}

// TestEnqueueRunsLayout pins the regrouping: each stream's records
// contiguous in body order, groups shard by shard in first-appearance
// order, one job per touched shard carrying its record count.
func TestEnqueueRunsLayout(t *testing.T) {
	m := testManager(t, 3)
	recs := unitRecords(12, 0)
	owner := []string{"a", "b", "a", "c", "c", "b", "d", "a", "e", "b", "f", "a"}
	b := &bodyBatch{byStream: make(map[string]int32)}
	if err := b.layout(m, recs, runsOf(owner)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, job := range b.jobs {
		if seen[job.shard] {
			t.Fatalf("two jobs for shard %d", job.shard)
		}
		seen[job.shard] = true
		n := 0
		for _, gi := range job.groups {
			g := b.groups[gi]
			if g.shard != job.shard || m.shardIndex(g.stream) != g.shard {
				t.Fatalf("group %s on shard %d in job for shard %d", g.stream, g.shard, job.shard)
			}
			var want []Record
			for i, name := range owner {
				if name == g.stream {
					want = append(want, recs[i])
				}
			}
			if got := b.recs[g.lo : g.lo+g.n]; !slices.EqualFunc(got, want, func(x, y Record) bool { return x.Time.Equal(y.Time) }) {
				t.Fatalf("stream %s records = %v, want %v", g.stream, got, want)
			}
			n += g.n
		}
		for k := 1; k < len(job.groups); k++ {
			if job.groups[k] < job.groups[k-1] {
				t.Fatalf("shard %d groups %v not in first-appearance order", job.shard, job.groups)
			}
		}
		if job.n != n {
			t.Fatalf("job for shard %d counts %d records, holds %d", job.shard, job.n, n)
		}
		total += n
	}
	if total != len(recs) || len(b.groups) != 6 {
		t.Fatalf("%d records in %d groups, want %d in 6", total, len(b.groups), len(recs))
	}
}

// FuzzEnqueueRuns holds EnqueueRuns + Drain to the synchronous path on
// arbitrary body layouts, repeated streams, one-record runs and more
// streams than shards included. Each layout byte is one run: its low
// nibble picks the stream, bits 4–6 the length (1–8), and bit 7
// displaces the run's first record to before its stream's clock; a
// zero byte ends a body. The oracle feeds every stream its records in
// the same order through FeedBatch, resuming past a rejected record as
// a worker does. The two must agree on every stream's anomalies and
// status, and on the fed and failed counts.
func FuzzEnqueueRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, layout []byte, shards, streams uint8) {
		if len(layout) > 512 {
			layout = layout[:512]
		}
		checkEnqueueRuns(t, layout, 1+int(shards%5), 1+int(streams%12))
	})
}

// checkEnqueueRuns is FuzzEnqueueRuns's property for one layout.
func checkEnqueueRuns(t *testing.T, layout []byte, shards, streams int) {
	t.Helper()
	script := func(s int) []Record { return unitRecords(40, 20+s%7) }
	cursor := make([]int, streams)
	next := func(s int) Record {
		sc := script(s)
		k := cursor[s]
		cursor[s]++
		if k < len(sc) {
			return sc[k]
		}
		return Record{Path: []string{"pop", "edge"}, Time: start().Add(time.Duration(40+k-len(sc)) * time.Minute)}
	}
	names := make([]string, streams)
	for s := range names {
		names[s] = fmt.Sprintf("f%d", s)
	}
	perStream := make([][]Record, streams)
	var bodies []fleetBody
	var body fleetBody
	var owner []string
	cut := func() {
		if len(body.recs) > 0 {
			body.runs = runsOf(owner)
			bodies = append(bodies, body)
		}
		body, owner = fleetBody{}, nil
	}
	for _, c := range layout {
		if c == 0 {
			cut()
			continue
		}
		s := int(c&0x0f) % streams
		for i := 0; i < 1+int(c>>4&0x07); i++ {
			r := next(s)
			if i == 0 && c&0x80 != 0 {
				r.Time = start().Add(-time.Minute)
			}
			body.recs = append(body.recs, r)
			owner = append(owner, names[s])
			perStream[s] = append(perStream[s], r)
		}
	}
	cut()

	ref, refIx := indexedManager(t, shards)
	failed := uint64(0)
	for s, recs := range perStream {
		for len(recs) > 0 {
			_, n, err := ref.FeedBatch(names[s], recs)
			if err == nil {
				break
			}
			failed++
			recs = recs[n+1:]
		}
	}
	m, ix := indexedManager(t, shards, WithPipeline(2, Block))
	for _, b := range bodies {
		if n, err := m.EnqueueRuns(context.Background(), b.recs, b.runs); err != nil || n != len(b.recs) {
			t.Fatalf("EnqueueRuns = %d, %v; want %d, nil", n, err, len(b.recs))
		}
	}
	m.Drain()

	if gs, ws := m.Streams(), ref.Streams(); !slices.Equal(gs, ws) {
		t.Fatalf("streams differ:\n got %+v\nwant %+v", gs, ws)
	}
	for _, name := range names {
		g := ix.Query(AnomalyQuery{Stream: name})
		w := refIx.Query(AnomalyQuery{Stream: name})
		if !slices.EqualFunc(g, w, func(x, y AnomalyEntry) bool { return x.Stream == y.Stream && x.Anomaly == y.Anomaly }) {
			t.Fatalf("stream %s: %d anomalies %+v, want %d %+v", name, len(g), g, len(w), w)
		}
	}
	gst, wst := m.Stats(), ref.Stats()
	if gst.Records != wst.Records || gst.Anomalies != wst.Anomalies || gst.Failed != failed || gst.Enqueued != gst.Records+gst.Failed {
		t.Fatalf("stats = records %d, anomalies %d, failed %d, enqueued %d; want records %d, anomalies %d, failed %d",
			gst.Records, gst.Anomalies, gst.Failed, gst.Enqueued, wst.Records, wst.Anomalies, failed)
	}
}
