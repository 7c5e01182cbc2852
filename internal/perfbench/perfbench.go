// Package perfbench holds the repository's hot-path micro-benchmark
// bodies in library form, so the same workloads are runnable both as
// `go test -bench` benchmarks (bench_test.go at the repo root) and as
// the machine-readable `tiresias-bench -json` mode that records the
// performance trajectory (BENCH_*.json).
package perfbench

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/experiments"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// profile mirrors the repo-root benchProfile: sized so one iteration
// is microseconds to sub-millisecond.
func profile() experiments.Profile {
	p := experiments.Quick()
	p.WarmUnits = 64
	p.RunUnits = 32
	p.BaseRate = 100
	return p
}

// engineWorkload builds a warm ADA on the collected tree plus the
// step stream in dense form (paths pre-interned, so the steady state
// is reached immediately).
func engineWorkload(b *testing.B) (*algo.ADA, []*algo.DenseUnit) {
	b.Helper()
	p := profile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := algo.Config{
		Theta:         p.Theta,
		WindowLen:     p.WarmUnits,
		Rule:          algo.LongTermHistory,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
		Tree:          w.Tree,
	}
	e, err := algo.NewADA(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Init(w.Units[:p.WarmUnits]); err != nil {
		b.Fatal(err)
	}
	// StepDense reads counts through a unit's sparse index, which the
	// collected Pairs copies lack.
	steps := make([]*algo.DenseUnit, 0, len(w.Units)-p.WarmUnits)
	for _, u := range w.Units[p.WarmUnits:] {
		du := &algo.DenseUnit{}
		for i, id := range u.IDs() {
			du.Add(int(id), u.Values()[i])
		}
		steps = append(steps, du)
	}
	return e, steps
}

// ADAStep measures one ADA time instance on the dense hot path, on a
// workload whose units touch most of a small tree (closure ≈ tree).
func ADAStep(b *testing.B) {
	e, units := engineWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.StepDense(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ADAStepSparse measures one ADA time instance where the step's cost
// must not depend on the tree: 8 touched leaves a unit on a 12k-leaf
// hierarchy whose every leaf carried traffic during warm-up. Timing
// starts after 1600 such units, past the point (≈1450 units at
// α = 0.4) where a quiet node's smoothed state used to decay into the
// subnormal range and make every later step pay a microcoded multiply
// per node.
func ADAStepSparse(b *testing.B) {
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
		Rule:          algo.LongTermHistory,
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

// WindowerObserve measures Step-1 record classification on the dense
// path (path interning plus pooled dense units).
func WindowerObserve(b *testing.B) {
	p := profile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	recs := w.Dataset.Records
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

// Spec names one micro-benchmark.
type Spec struct {
	Name string
	Fn   func(b *testing.B)
}

// Specs lists the tracked hot-path benchmarks.
func Specs() []Spec {
	return []Spec{
		{"ADAStep", ADAStep},
		{"ADAStepSparse", ADAStepSparse},
		{"WindowerObserve", WindowerObserve},
		{"ManagerFeed", ManagerFeed},
		{"ManagerFeedPipelined", ManagerFeedPipelined},
		{"EnqueueMerged", EnqueueMerged},
		{"HandlerIngest", HandlerIngest},
	}
}

// Result is one benchmark measurement in the BENCH_*.json schema.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Note annotates the measurement's provenance (e.g. the commit a
	// committed baseline was taken at).
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// RunAll executes every tracked benchmark via testing.Benchmark and
// returns the report. A benchmark whose body failed (testing.Benchmark
// reports N == 0) is an error, so a broken workload cannot silently
// record a zeroed row into the perf trajectory.
func RunAll() (Report, error) {
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range Specs() {
		r := testing.Benchmark(s.Fn)
		if r.N == 0 {
			return rep, fmt.Errorf("perfbench: benchmark %s failed (0 iterations)", s.Name)
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:        s.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rep, nil
}
