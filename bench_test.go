// Package tiresias_test holds the repository-level benchmarks: one
// testing.B benchmark per table and figure of the paper, each driving
// the same experiment code as cmd/tiresias-bench, plus micro-
// benchmarks for the hot paths (per-timeunit engine steps and the
// forecasting update).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package tiresias_test

import (
	"testing"
	"time"

	"tiresias/internal/experiments"
	"tiresias/internal/forecast"
	"tiresias/internal/perfbench"
	"tiresias/internal/stream"
)

// benchProfile is sized so each experiment iteration is milliseconds
// to a few hundred milliseconds.
func benchProfile() experiments.Profile {
	p := experiments.Quick()
	p.WarmUnits = 64
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
//
// The bodies live in internal/perfbench so that cmd/tiresias-bench
// -json runs the exact same workloads when recording BENCH_*.json.

// BenchmarkADAStep measures one ADA time instance on the dense hot
// path, where a unit touches most of a small tree.
func BenchmarkADAStep(b *testing.B) { perfbench.ADAStep(b) }

// BenchmarkADAStepSparse measures one ADA time instance touching 8
// leaves of a 12k-leaf tree, 1600 quiet units in: the step must cost
// O(|closure(touched)| + |SHHH| + |refs|), not O(|tree|).
func BenchmarkADAStepSparse(b *testing.B) { perfbench.ADAStepSparse(b) }

// BenchmarkManagerFeed measures the synchronous single-goroutine
// Manager.Feed path across a 4-shard fleet (one unit per record).
func BenchmarkManagerFeed(b *testing.B) { perfbench.ManagerFeed(b) }

// BenchmarkManagerFeedPipelined measures the same workload enqueued to
// the 4 per-shard pipeline workers (Block policy, drain included); on
// multi-core hosts it should beat BenchmarkManagerFeed by the worker
// parallelism.
func BenchmarkManagerFeedPipelined(b *testing.B) { perfbench.ManagerFeedPipelined(b) }

// BenchmarkEnqueueMerged measures one warm 1000-record body of 64
// time-merged streams through EnqueueRuns + Drain (one job per shard
// per body); figures are per body.
func BenchmarkEnqueueMerged(b *testing.B) { perfbench.EnqueueMerged(b) }

// BenchmarkHandlerIngest measures one warm 1000-record NDJSON body
// through the serving layer's handler (read, decode, validate, group,
// synchronous FeedBatch, response); figures are per body.
func BenchmarkHandlerIngest(b *testing.B) { perfbench.HandlerIngest(b) }

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

// BenchmarkWindowerObserve measures Step-1 record classification on
// the dense path (path interning plus pooled dense units).
func BenchmarkWindowerObserve(b *testing.B) { perfbench.WindowerObserve(b) }

// BenchmarkWindowerObserveMap measures the compatibility map path
// (per-record Key construction, map-form timeunits).
func BenchmarkWindowerObserveMap(b *testing.B) {
	p := benchProfile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	recs := w.Dataset.Records
	b.ReportAllocs()
	b.ResetTimer()
	var win *stream.Windower
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			win, err = stream.NewWindower(time.Minute)
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := win.Observe(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}
