package perfbench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tiresias"
)

// Manager throughput benchmarks: the same 4-stream workload fed
// through the synchronous single-goroutine Feed path and through the
// pipelined EnqueueBatch path. The two ns/op figures are directly
// comparable records-in-to-detections-out costs; on a multi-core host
// the pipelined figure should sit well under half the synchronous one
// (4 shards, 4 workers). On a single-core host the pipelined run
// degenerates to the synchronous cost plus queue overhead.
// EnqueueMerged adds the fleet shape: one body of many time-merged
// streams through EnqueueRuns.

// benchShards is the shard/worker count of the manager benchmarks.
const benchShards = 4

// benchStreams returns one stream name per shard, so the benchmark's
// feeds never contend on a shard lock and the pipelined variant keeps
// all workers busy. Names are probed with the same FNV-1a the Manager
// uses.
func benchStreams() [benchShards]string {
	var out [benchShards]string
	var filled [benchShards]bool
	n := 0
	for i := 0; n < benchShards && i < 1000; i++ {
		name := fmt.Sprintf("stream-%02d", i)
		const offset32, prime32 = 2166136261, 16777619
		h := uint32(offset32)
		for j := 0; j < len(name); j++ {
			h ^= uint32(name[j])
			h *= prime32
		}
		s := int(h % benchShards)
		if !filled[s] {
			filled[s] = true
			out[s] = name
			n++
		}
	}
	return out
}

// managerOptions is the benchmark fleet configuration: one-minute
// units, a small window so steady state is reached quickly, and fixed
// seasonality so warmup cost stays flat.
func managerOptions() []tiresias.Option {
	return []tiresias.Option{
		tiresias.WithDelta(time.Minute),
		tiresias.WithWindowLen(32),
		tiresias.WithTheta(0.5),
		tiresias.WithSeasonality(1.0, 8),
	}
}

// benchRecord returns the unit-th record of a stream: one record per
// timeunit, so every feed completes a unit and the measured cost is
// dominated by the engine step — the throughput bound at scale.
func benchRecord(base time.Time, unit int) tiresias.Record {
	return tiresias.Record{Path: benchPaths[unit%len(benchPaths)], Time: base.Add(time.Duration(unit) * time.Minute)}
}

// benchPaths is a small fixed 2-level hierarchy (4 mid nodes × 4
// leaves), shared by all benchmark streams.
var benchPaths = func() [][]string {
	var out [][]string
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out = append(out, []string{fmt.Sprintf("vho%d", i), fmt.Sprintf("io%d", j)})
		}
	}
	return out
}()

// warmManager builds a manager and feeds every stream past warmup, so
// the timed region measures only warm steady-state units.
func warmManager(b *testing.B, opts ...tiresias.ManagerOption) (*tiresias.Manager, [benchShards]string, int) {
	b.Helper()
	opts = append([]tiresias.ManagerOption{
		tiresias.WithShards(benchShards),
		tiresias.WithDetectorOptions(managerOptions()...),
	}, opts...)
	m, err := tiresias.NewManager(opts...)
	if err != nil {
		b.Fatal(err)
	}
	streams := benchStreams()
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	const warm = 34 // window 32 + slack, so every stream is warm
	for _, s := range streams {
		for u := 0; u < warm; u++ {
			if _, err := m.Feed(s, benchRecord(base, u)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return m, streams, warm
}

// ManagerFeed measures the synchronous single-goroutine Feed hot path
// across a 4-shard fleet: one record per op, each completing a
// timeunit (windowing + engine step + screening).
func ManagerFeed(b *testing.B) {
	m, streams, warm := warmManager(b)
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	units := make([]int, benchShards)
	for i := range units {
		units[i] = warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % benchShards
		if _, err := m.Feed(streams[s], benchRecord(base, units[s])); err != nil {
			b.Fatal(err)
		}
		units[s]++
	}
}

// ManagerFeedPipelined measures the same workload through the
// pipelined path: batches enqueued to 4 per-shard workers (Block
// policy, lossless), with the final Drain inside the timed region so
// ns/op is true records-in-to-detections-out cost.
func ManagerFeedPipelined(b *testing.B) {
	m, streams, warm := warmManager(b, tiresias.WithPipeline(256, tiresias.Block))
	defer m.Close()
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	units := make([]int, benchShards)
	for i := range units {
		units[i] = warm
	}
	const batchSize = 64
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		for s := 0; s < benchShards && sent < b.N; s++ {
			n := min(batchSize, b.N-sent)
			batch := make([]tiresias.Record, n)
			for j := 0; j < n; j++ {
				batch[j] = benchRecord(base, units[s])
				units[s]++
			}
			if err := m.EnqueueBatch(streams[s], batch); err != nil {
				b.Fatal(err)
			}
			sent += n
		}
	}
	m.Drain()
	b.StopTimer()
	if st := m.Stats(); st.Failed > 0 {
		b.Fatalf("pipeline feed errors: %+v", st)
	}
}

// mergedStreams and mergedRecords size the EnqueueMerged body.
const (
	mergedStreams = 64
	mergedRecords = 1000
)

// mergedBody renders one minute of a 64-stream fleet merged by time:
// 1000 records, each from a Zipf-picked stream, 60 ms apart, with the
// body's same-stream runs.
func mergedBody(base time.Time) ([]tiresias.Record, []tiresias.StreamRun) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, mergedStreams-1)
	recs := make([]tiresias.Record, mergedRecords)
	var runs []tiresias.StreamRun
	for i := range recs {
		recs[i] = tiresias.Record{Path: benchPaths[i%len(benchPaths)], Time: base.Add(time.Duration(i) * 60 * time.Millisecond)}
		name := fmt.Sprintf("fleet-%02d", zipf.Uint64())
		if n := len(runs); n > 0 && runs[n-1].Stream == name {
			runs[n-1].End = i + 1
			continue
		}
		runs = append(runs, tiresias.StreamRun{Stream: name, End: i + 1})
	}
	return recs, runs
}

// EnqueueMerged measures one warm 1000-record body of 64 time-merged
// streams (911 same-stream runs over 63 streams) through the
// batch-first pipelined path: EnqueueRuns, then Drain, so ns/op is the
// body's records-in-to-detections-out cost. Each body is the next
// minute, one unit — one engine step — for every stream it touches.
// ns, allocs and bytes are per body.
func EnqueueMerged(b *testing.B) {
	m, err := tiresias.NewManager(
		tiresias.WithShards(benchShards),
		tiresias.WithPipeline(8, tiresias.Block),
		tiresias.WithDetectorOptions(managerOptions()...),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	recs, runs := mergedBody(time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC))
	ctx := context.Background()
	post := func() {
		if _, err := m.EnqueueRuns(ctx, recs, runs); err != nil {
			b.Fatal(err)
		}
		m.Drain()
		// The records are only borrowed: move the body to the next unit.
		for i := range recs {
			recs[i].Time = recs[i].Time.Add(time.Minute)
		}
	}
	for i := 0; i < 40; i++ { // past the 32-unit window: every stream warm
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if st := m.Stats(); st.Failed > 0 {
		b.Fatalf("pipeline feed errors: %+v", st)
	}
}
