// Command bench is the repository's system benchmark: it builds
// cmd/tiresias-serve, runs it as a child process, drives it through
// the client package with seeded internal/gen workloads, checks the
// outputs against an in-process detector, and prints every metric of
// BENCHMARK.json by name and unit as JSON. A second, in-process traced
// run times calls into each layer's public functions and gives the
// per-layer numbers. See README.md in this directory.
//
//	go run ./bench -workload dense_ingest -seed 1 -seconds 16 -trace 0
//	go run ./bench > a.json             # all workloads, one report
//	go run ./bench -trace 1             # ... with the per-layer metrics
//	go run ./bench -repeat 2            # the set twice, agreement table
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: all, as one report)")
		seed    = flag.Int64("seed", 1, "workload seed; the server sees only the generated records")
		seconds = flag.Float64("seconds", defaultSeconds, "length of each timed phase")
		trace   = flag.Int("trace", 0, "1 adds the in-process traced run and prints the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and print whether the runs agree within each bound")
		compare = flag.Bool("compare", false, "compare two report files given as arguments, applying each metric's bound")
		smoke   = flag.Bool("smoke", false, "check the plumbing only: 1/50 of the record rates, half-second phases, one set-up")
	)
	flag.Parse()
	b := &bencher{seed: *seed, seconds: *seconds, scale: 1, rounds: setupRounds, trace: *trace == 1}
	if *smoke {
		b.seconds, b.scale, b.rounds = smokeSeconds, smokeScale, 1
	}
	os.Exit(run(b, *name, *repeat, *compare, flag.Args()))
}

// The smoke run's size: enough to cross every code path, far too
// little to measure anything.
const (
	smokeScale   = 50
	smokeSeconds = 0.5
)

// run is main without os.Exit, so deferred cleanups happen on every
// path, a panic included.
func run(b *bencher, name string, repeat int, compare bool, args []string) (code int) {
	defer runCleanups()
	if compare {
		if len(args) != 2 {
			logf("-compare needs two report files")
			return 2
		}
		return compareReports(args[0], args[1])
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if b.root, err = findRoot(); err != nil {
		logf("%v", err)
		return 1
	}
	if b.bin, err = buildServer(b.root); err != nil {
		logf("%v", err)
		return 1
	}

	if name != "" {
		w := findWorkload(name)
		if w == nil {
			logf("unknown workload %q", name)
			return 2
		}
		// The contract's result line: the end-to-end metrics of a
		// clean run, or the per-layer metrics of a traced one.
		wr, err := b.workload(ctx, w, b.trace)
		if err != nil {
			logf("%s: %v", w.name, err)
			return 1
		}
		metrics := wr.EndToEnd
		if b.trace {
			metrics = wr.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{wr.Correct, wr.Attempted, wr.Failed, metrics})
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !wr.Correct {
			return 1
		}
		return 0
	}

	rep := report{Env: environment(b.root), Seed: b.seed, Seconds: b.seconds}
	ok := true
	for i := 0; i < repeat; i++ {
		var set runSet
		for j := range workloads {
			wr, err := b.workload(ctx, &workloads[j], false)
			if err == nil && b.trace {
				err = b.addTraced(ctx, &workloads[j], wr)
			}
			if err != nil {
				logf("%s: %v", workloads[j].name, err)
				return 1
			}
			ok = ok && wr.Correct
			set.Workloads = append(set.Workloads, *wr)
		}
		rep.Runs = append(rep.Runs, set)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Printf("%s\n", raw)
	if repeat > 1 {
		ok = printAgreement(os.Stderr, rep) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// bencher holds what every workload run shares.
type bencher struct {
	root, bin string
	seed      int64
	seconds   float64
	// scale divides the record rates and rounds is the number of
	// set-ups per clean run; 1 and setupRounds except in a smoke run.
	scale  float64
	rounds int
	trace  bool
}

// addTraced runs the workload's traced invocation and folds its
// per-layer metrics and verdict into the clean run's report.
func (b *bencher) addTraced(ctx context.Context, w *workload, wr *workloadReport) error {
	tr, err := b.workload(ctx, w, true)
	if err != nil {
		return err
	}
	wr.PerLayer = tr.PerLayer
	wr.Info["traced"] = tr.Info
	wr.Correct = wr.Correct && tr.Correct
	wr.Attempted += tr.Attempted
	wr.Failed += tr.Failed
	wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	return nil
}

// workload runs one workload. Untraced, it is the clean run against
// the child server and reports the end-to-end metrics. Traced, it is
// a shorter clean run (for the layer metrics read from served
// surfaces) followed by the in-process traced run, and reports the
// per-layer metrics: end-to-end metrics are never taken from a traced
// run.
func (b *bencher) workload(ctx context.Context, w *workload, traced bool) (*workloadReport, error) {
	// The generator keeps one core free for the server.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(generatorProcs()))
	o := servedOpts{seed: b.seed, seconds: b.seconds, scale: b.scale, rounds: b.rounds}
	if traced {
		o.seconds, o.rounds, o.extras = b.seconds*servedShare, 1, true
	}
	logf("%s: clean run, seed %d, %.1fs", w.name, o.seed, o.seconds)
	sr, err := runServed(ctx, b.root, b.bin, w, o)
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{
		Name:        w.name,
		Correct:     sr.correct,
		Attempted:   sr.attempted,
		Failed:      sr.failed,
		FailedShare: float64(sr.failed) / float64(max(sr.attempted, 1)),
		Info:        sr.info,
	}
	if !traced {
		wr.EndToEnd = withUnits(endToEnd, sr.e2e)
		return wr, nil
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	logf("%s: traced run", w.name)
	layer, info, err := runTraced(ctx, b.root, sr.plan, tracedOpts{
		seconds: b.seconds * (1 - servedShare),
		scale:   b.scale,
		served:  sr,
	})
	if err != nil {
		return nil, err
	}
	for k, v := range sr.layer {
		layer[k] = v
	}
	for k, v := range info {
		wr.Info[k] = v
	}
	wr.PerLayer = withUnits(perLayer, layer)
	return wr, nil
}

// servedShare is the part of a traced invocation's time given to the
// shortened clean run; the ladder and the traced served run take the
// rest.
const servedShare = 0.4

// withUnits labels measured values with their declared units, and
// fails loudly if a declared metric was not measured.
func withUnits(decl []metric, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decl))
	for _, m := range decl {
		v, ok := vals[m.name]
		if !ok {
			panic("bench: metric " + m.name + " was declared but not measured")
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}
