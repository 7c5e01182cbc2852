// Package tiresias_test holds the repository-level benchmarks: one
// testing.B benchmark per table and figure of the paper, each driving
// the same experiment code as cmd/tiresias-bench, plus micro-
// benchmarks for the hot paths (per-timeunit engine steps, path
// interning, record windowing, the forecasting update, Manager ingest
// and the HTTP ingest handler). The end-to-end cost of the served
// system is measured by `go run ./bench` instead.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package tiresias_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"tiresias"
	"tiresias/httpserve"
	"tiresias/internal/algo"
	"tiresias/internal/experiments"
	"tiresias/internal/forecast"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// benchProfile is sized so each experiment iteration is milliseconds
// to a few hundred milliseconds.
func benchProfile() experiments.Profile {
	p := experiments.Quick()
	p.WindowLen = 64
	p.RunUnits = 32
	p.BaseRate = 100
	return p
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ByID(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if r.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable1CCDMix regenerates Table I (first-level ticket mix).
func BenchmarkTable1CCDMix(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Hierarchies regenerates Table II (hierarchy degrees).
func BenchmarkTable2Hierarchies(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Runtime regenerates Table III (ADA vs STA stage
// timings at two timeunit sizes).
func BenchmarkTable3Runtime(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Memory regenerates Table IV (normalized memory).
func BenchmarkTable4Memory(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5Accuracy regenerates Table V (ADA accuracy vs STA by
// split rule and reference levels).
func BenchmarkTable5Accuracy(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6Reference regenerates Table VI (Type 1/2/3 metrics
// against the VHO-level control chart).
func BenchmarkTable6Reference(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFig1CCDF regenerates Fig. 1 (per-level CCDFs).
func BenchmarkFig1CCDF(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2Seasonality regenerates Fig. 2 (diurnal/weekly shape).
func BenchmarkFig2Seasonality(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig9SplitError regenerates Fig. 9 (split-bias error decay).
func BenchmarkFig9SplitError(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig11FFT regenerates Fig. 11 (periodogram peaks). The
// 12-week series makes this the largest figure bench.
func BenchmarkFig11FFT(b *testing.B) {
	p := benchProfile()
	p.BaseRate = 240
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SeriesError regenerates Fig. 12 (ADA-vs-STA series
// error across split rules and reference levels).
func BenchmarkFig12SeriesError(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkSensitivity sweeps the RT/DT thresholds (§VII "sensitivity
// test").
func BenchmarkSensitivity(b *testing.B) { runExperiment(b, "sensitivity") }

// BenchmarkAblateScales measures the multi-timescale ablation.
func BenchmarkAblateScales(b *testing.B) { runExperiment(b, "ablate-scales") }

// --- Micro-benchmarks on the hot paths. ---

// engineWorkload builds a warm ADA on the collected tree plus the
// step stream in dense form (paths pre-interned, so the steady state
// is reached immediately).
func engineWorkload(b *testing.B) (*algo.ADA, []*algo.DenseUnit) {
	b.Helper()
	p := benchProfile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := algo.Config{
		Theta:         p.Theta,
		WindowLen:     p.WindowLen,
		Rule:          algo.LongTermHistory,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
		Tree:          w.Tree,
	}
	e, err := algo.NewADA(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Init(w.Units[:p.WindowLen]); err != nil {
		b.Fatal(err)
	}
	// StepDense reads counts through a unit's sparse index, which the
	// collected Pairs copies lack.
	steps := make([]*algo.DenseUnit, 0, len(w.Units)-p.WindowLen)
	for _, u := range w.Units[p.WindowLen:] {
		du := &algo.DenseUnit{}
		for i, id := range u.IDs() {
			du.Add(int(id), u.Values()[i])
		}
		steps = append(steps, du)
	}
	return e, steps
}

// BenchmarkADAStep measures one ADA time instance on the dense hot
// path, on a workload whose units touch most of a small tree
// (closure ≈ tree).
func BenchmarkADAStep(b *testing.B) {
	e, units := engineWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.StepDense(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADAStepSparse measures one ADA time instance where the
// step's cost must not depend on the tree: 8 touched leaves a unit on
// a 12k-leaf hierarchy whose every leaf carried traffic during
// warm-up, so the step must cost O(|closure(touched)| + |SHHH| +
// |refs|), not O(|tree|). Timing starts after 1600 such units, past
// the point (≈1450 units at α = 0.4) where a quiet node's smoothed
// state used to decay into the subnormal range and make every later
// step pay a microcoded multiply per node. It runs under the default
// split rule; under Last-Time-Unit, the one rule whose statistic the
// previous closure also writes; and under EWMA, the one rule whose
// statistic a quiet node must catch up on when it is next touched
// (ewmaThrough).
func BenchmarkADAStepSparse(b *testing.B) {
	b.Run("rule=LongTermHistory", func(b *testing.B) { benchADAStepSparse(b, algo.LongTermHistory) })
	b.Run("rule=LastTimeUnit", func(b *testing.B) { benchADAStepSparse(b, algo.LastTimeUnit) })
	b.Run("rule=EWMA", func(b *testing.B) { benchADAStepSparse(b, algo.EWMARule) })
}

func benchADAStepSparse(b *testing.B, rule algo.SplitRule) {
	const tops, mids, perMid, warm, quiet = 6, 20, 100, 48, 1600
	tree := hierarchy.New()
	leaves := make([]int, 0, tops*mids*perMid)
	for t := 0; t < tops; t++ {
		for m := 0; m < mids; m++ {
			for l := 0; l < perMid; l++ {
				leaves = append(leaves, tree.Intern([]string{"t" + strconv.Itoa(t), "m" + strconv.Itoa(m), "l" + strconv.Itoa(l)}))
			}
		}
	}
	e, err := algo.NewADA(algo.Config{
		Theta:         10,
		WindowLen:     warm,
		Rule:          rule,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
		Tree:          tree,
	})
	if err != nil {
		b.Fatal(err)
	}
	window := make([]*algo.DenseUnit, warm)
	for i := range window {
		window[i] = &algo.DenseUnit{}
		for _, id := range leaves {
			window[i].Add(id, float64(1+(id+i)%3))
		}
	}
	if _, err := e.Init(window); err != nil {
		b.Fatal(err)
	}
	units := make([]*algo.DenseUnit, 64)
	for i := range units {
		units[i] = &algo.DenseUnit{}
		for k := 0; k < 8; k++ {
			units[i].Add(leaves[(i*8+k)*977%len(leaves)], float64(1+k%3))
		}
	}
	for i := 0; i < quiet; i++ {
		if _, err := e.StepDense(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.StepDense(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowerObserve measures Step-1 record classification on
// the dense path (path interning plus pooled dense units).
func BenchmarkWindowerObserve(b *testing.B) { benchWindowerObserve(b, false) }

// BenchmarkWindowerObserveCached is BenchmarkWindowerObserve on
// records as the server's decoder emits them: each distinct path one
// shared slice with a cache handle, resolved through the windower's
// memo instead of Tree.Intern.
func BenchmarkWindowerObserveCached(b *testing.B) { benchWindowerObserve(b, true) }

func benchWindowerObserve(b *testing.B, cached bool) {
	w, err := experiments.CCDNetWorkload(benchProfile(), nil)
	if err != nil {
		b.Fatal(err)
	}
	recs := w.Dataset.Records
	if cached {
		recs = cachedRecords(recs)
	}
	tree := hierarchy.New()
	b.ReportAllocs()
	b.ResetTimer()
	var win *stream.Windower
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			b.StopTimer()
			win, err = stream.NewWindower(time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			win.BindTree(tree)
			b.StartTimer()
		}
		if _, err := win.ObserveDense(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// cachedRecords gives recs the paths a decoder cache would: one
// clipped slice per distinct path, with handles in first-sight order.
func cachedRecords(recs []stream.Record) []stream.Record {
	type entry struct {
		path []string
		ref  uint32
	}
	seen := map[hierarchy.Key]entry{}
	out := make([]stream.Record, len(recs))
	for i, r := range recs {
		e, ok := seen[r.Key()]
		if !ok {
			e = entry{slices.Clip(slices.Clone(r.Path)), uint32(len(seen) + 1)}
			seen[r.Key()] = e
		}
		out[i] = stream.CachedRecord(e.path, r.Time, e.ref)
	}
	return out
}

// BenchmarkTreeIntern measures Tree.Intern of known paths across a
// fleet: 64 trees over mixed_fleet's shape, each grown in its own
// random leaf order, interned in a random (tree, leaf) order, with the
// leaf slices shared by every tree as a decoder cache shares them.
func BenchmarkTreeIntern(b *testing.B) {
	const trees, picks = 64, 1 << 16
	leaves := gen.CCDNetworkShape(0.1).Leaves()
	rng := rand.New(rand.NewSource(1))
	fleet := make([]*hierarchy.Tree, trees)
	for i := range fleet {
		fleet[i] = hierarchy.New()
		for _, k := range rng.Perm(len(leaves)) {
			fleet[i].Intern(leaves[k])
		}
	}
	var tree, leaf [picks]int32
	for k := range tree {
		tree[k], leaf[k] = int32(rng.Intn(trees)), int32(rng.Intn(len(leaves)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % picks
		if fleet[tree[k]].Intern(leaves[leaf[k]]) < 0 {
			b.Fatal("a known path did not intern")
		}
	}
}

// BenchmarkHoltWintersUpdate measures the constant-time forecast
// update at the core of Step 4.
func BenchmarkHoltWintersUpdate(b *testing.B) {
	hist := make([]float64, 192)
	for i := range hist {
		hist[i] = 100 + 30*float64(i%96)/96
	}
	hw, err := forecast.NewHoltWinters(0.4, 0.05, 0.3, 96, hist)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.Update(hw.Forecast() + 1)
	}
}

// BenchmarkDualSeasonUpdate measures the dual-seasonality variant.
func BenchmarkDualSeasonUpdate(b *testing.B) {
	hist := make([]float64, 4*168)
	for i := range hist {
		hist[i] = 100 + 30*float64(i%24)/24 + 10*float64(i%168)/168
	}
	d, err := forecast.NewDualSeason(0.4, 0.05, 0.3, 0.76, 24, 168, hist)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(d.Forecast() + 1)
	}
}

// Manager throughput benchmarks: the same 4-stream workload fed
// through the synchronous single-goroutine Feed path and through the
// pipelined EnqueueBatch path. The two ns/op figures are directly
// comparable records-in-to-detections-out costs; on a multi-core host
// the pipelined figure should sit well under half the synchronous one
// (4 shards, 4 workers). On a single-core host the pipelined run
// degenerates to the synchronous cost plus queue overhead.
// BenchmarkEnqueueMerged adds the fleet shape: one body of many
// time-merged streams through EnqueueRuns.

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
			if _, _, err := m.FeedBatch(s, []tiresias.Record{benchRecord(base, u)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return m, streams, warm
}

// BenchmarkManagerFeed measures the synchronous single-goroutine
// FeedBatch hot path across a 4-shard fleet: one record per op, each completing
// a timeunit (windowing + engine step + screening).
func BenchmarkManagerFeed(b *testing.B) {
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
		if _, _, err := m.FeedBatch(streams[s], []tiresias.Record{benchRecord(base, units[s])}); err != nil {
			b.Fatal(err)
		}
		units[s]++
	}
}

// BenchmarkManagerFeedPipelined measures the same workload through the
// pipelined path: batches enqueued to 4 per-shard workers (Block
// policy, lossless), with the final Drain inside the timed region so
// ns/op is true records-in-to-detections-out cost.
func BenchmarkManagerFeedPipelined(b *testing.B) {
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

// BenchmarkEnqueueMerged measures one warm 1000-record body of 64
// time-merged streams (911 same-stream runs over 63 streams) through
// the batch-first pipelined path: EnqueueRuns, then Drain, so ns/op
// is the body's records-in-to-detections-out cost. Each body is the
// next minute, one unit — one engine step — for every stream it
// touches. ns, allocs and bytes are per body.
func BenchmarkEnqueueMerged(b *testing.B) {
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

// ingestRecords is the size of the HandlerIngest body.
const ingestRecords = 1000

// ingestBody renders one NDJSON body (1000 records of one stream, one
// second apart, over 90 five-level paths) starting at base, and
// returns the offsets of its dates so a run can move it to another
// day by rewriting ten bytes a record.
func ingestBody(base time.Time) (body []byte, dateAt []int) {
	for i := 0; i < ingestRecords; i++ {
		body = append(body, `{"stream":"s000","path":["vho`...)
		body = strconv.AppendInt(body, int64(i%3), 10)
		body = append(body, `","io`...)
		body = strconv.AppendInt(body, int64(i%5), 10)
		body = append(body, `","co`...)
		body = strconv.AppendInt(body, int64(i%6), 10)
		body = append(body, `","dslam12","stb7"],"time":"`...)
		dateAt = append(dateAt, len(body))
		body = base.Add(time.Duration(i)*time.Second).AppendFormat(body, time.RFC3339)
		body = append(body, "\"}\n"...)
	}
	return body, dateAt
}

// BenchmarkHandlerIngest measures one warm 1000-record single-stream
// NDJSON body through the serving layer's handler on a recorder: body
// read, decode, validation, grouping and the synchronous FeedBatch
// (one engine step: a body is one day-long unit's records), response
// included. ns, allocs and bytes are per body.
func BenchmarkHandlerIngest(b *testing.B) {
	s, err := httpserve.New(httpserve.Config{Delta: 24 * time.Hour, WindowLen: 8, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	day := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	body, dateAt := ingestBody(day)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v2/records", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		// Next body: the same records on the next day, the next unit.
		day = day.AddDate(0, 0, 1)
		var date [len("2006-01-02")]byte
		day.AppendFormat(date[:0], "2006-01-02")
		for _, at := range dateAt {
			copy(body[at:], date[:])
		}
	}
	for i := 0; i < 12; i++ { // past the window: caches warm, stream warm
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
