// Command tiresias runs the full detection pipeline over a dataset
// file and prints (or stores) the anomalies it finds.
//
// Usage:
//
//	tiresias -in data.csv -delta 15m -window 672 -theta 10 \
//	    -rt 2.8 -dt 8 -rule long-term-history -ref 2 \
//	    -store anomalies.jsonl
//
// Input is either the CSVish format of tiresias-gen ("time,path") or
// JSON lines ({"path":[...],"time":"..."}) selected with -format. The
// stream is processed incrementally (O(window) memory) and stops
// cleanly on SIGINT/SIGTERM. -store streams each anomaly to its file
// as JSON lines the moment it is detected (tiresias.ReadAnomalies
// reads them back), so an interrupted run keeps everything found so
// far.
//
// With -checkpoint the detector state is written out when the run ends
// (including on interrupt), and -resume continues a later run from
// that file without re-warming:
//
//	tiresias -in day1.csv -checkpoint state.ckpt
//	tiresias -in day2.csv -resume state.ckpt -checkpoint state.ckpt
//
// A run that reaches end of input flushes its final partial timeunit,
// so a resume over the next file detects exactly what one
// uninterrupted run would have. The checkpoint holds completed-unit
// state only: interrupting mid-stream loses the records of the unit
// in progress (and, during warmup, the buffered warmup units) — feed
// the affected unit's records again on resume, or use the serve
// Manager, whose checkpoints carry partial units.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tiresias"
	"tiresias/internal/fault"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiresias:", err)
		os.Exit(1)
	}
}

func parseRule(s string) (tiresias.SplitRule, error) {
	switch s {
	case "uniform":
		return tiresias.Uniform, nil
	case "last-time-unit":
		return tiresias.LastTimeUnit, nil
	case "long-term-history":
		return tiresias.LongTermHistory, nil
	case "ewma":
		return tiresias.EWMARule, nil
	default:
		return 0, fmt.Errorf("unknown split rule %q", s)
	}
}

// printAnomaly writes the one-line text form of a detection.
func printAnomaly(w io.Writer, a tiresias.Anomaly) {
	fmt.Fprintf(w, "anomaly instance=%d time=%s node=%s actual=%.1f forecast=%.1f\n",
		a.Instance, a.Time.Format(time.RFC3339), a.Key, a.Actual, a.Forecast)
}

func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tiresias", flag.ContinueOnError)
	var (
		in      = fs.String("in", "-", "input file (- for stdin)")
		format  = fs.String("format", "csv", "input format: csv | jsonl")
		delta   = fs.Duration("delta", 15*time.Minute, "timeunit size Δ")
		window  = fs.Int("window", 672, "sliding window length ℓ in timeunits")
		theta   = fs.Float64("theta", 10, "heavy-hitter threshold θ")
		rt      = fs.Float64("rt", 2.8, "relative sensitivity threshold RT")
		dt      = fs.Float64("dt", 8, "absolute sensitivity threshold DT")
		ruleSel = fs.String("rule", "long-term-history", "split rule: uniform | last-time-unit | long-term-history | ewma")
		ref     = fs.Int("ref", 2, "reference time-series levels h")
		storeTo = fs.String("store", "", "also stream anomalies to this file as JSON lines, one per detection")
		jsonOut = fs.Bool("json", false, "stream anomalies as JSON lines instead of text")
		quiet   = fs.Bool("quiet", false, "suppress per-anomaly lines")
		resume  = fs.String("resume", "", "resume from a checkpoint written by -checkpoint (detector flags come from the checkpoint; -delta/-window/-theta/-rule/-ref are ignored)")
		ckptTo  = fs.String("checkpoint", "", "write the detector state to this file when the run ends (including on interrupt), for later -resume")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var src tiresias.Source
	switch *format {
	case "csv":
		src = tiresias.NewCSVishSource(r)
	case "jsonl":
		src = tiresias.NewJSONLSource(r)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	rule, err := parseRule(*ruleSel)
	if err != nil {
		return err
	}

	// Anomalies stream out through sinks as units complete, instead of
	// accumulating in the result; -store is one more JSON-lines sink,
	// over a file opened once for the whole run. Sinks live in their
	// own option set because a -resume restore re-attaches them on top
	// of the checkpointed configuration.
	var jsonSink, storeSink *tiresias.JSONSink
	var sinkOpts []tiresias.Option
	if *storeTo != "" {
		f, ferr := os.Create(*storeTo)
		if ferr != nil {
			return ferr
		}
		// A failed Close fails the run: the file may not have landed.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		storeSink = tiresias.NewJSONSink(f)
		sinkOpts = append(sinkOpts, tiresias.WithSink(storeSink))
	}
	if *jsonOut {
		jsonSink = tiresias.NewJSONSink(stdout)
		sinkOpts = append(sinkOpts, tiresias.WithSink(jsonSink))
	} else if !*quiet {
		sinkOpts = append(sinkOpts, tiresias.WithSink(tiresias.SinkFuncs{
			Anomaly: func(a tiresias.Anomaly) { printAnomaly(stdout, a) },
		}))
	} else if storeSink == nil {
		// -quiet with no other output: a no-op sink keeps Run from
		// accumulating anomalies it would never print (bounded memory
		// on long streams; the summary only needs AnomalyCount).
		sinkOpts = append(sinkOpts, tiresias.WithSink(tiresias.SinkFuncs{}))
	}

	var t *tiresias.Tiresias
	if *resume != "" {
		// The checkpoint carries the structural configuration; only
		// sinks and detection thresholds are applied on top.
		f, err := os.Open(*resume)
		if err != nil {
			return err
		}
		t, err = tiresias.Restore(f, append([]tiresias.Option{
			tiresias.WithThresholds(tiresias.Thresholds{RT: *rt, DT: *dt}),
		}, sinkOpts...)...)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		opts := []tiresias.Option{
			tiresias.WithDelta(*delta),
			tiresias.WithWindowLen(*window),
			tiresias.WithTheta(*theta),
			tiresias.WithThresholds(tiresias.Thresholds{RT: *rt, DT: *dt}),
			tiresias.WithSplitRule(rule),
			tiresias.WithReferenceLevels(*ref),
		}
		t, err = tiresias.New(append(opts, sinkOpts...)...)
		if err != nil {
			return err
		}
	}
	// An interrupted or failed run still returns the partial result:
	// report what was detected before surfacing the error, so hours of
	// streaming are not lost to a Ctrl-C (the -store file already holds
	// every detection).
	res, runErr := t.Run(ctx, src)
	if res != nil {
		summaryTo := stdout
		if jsonSink != nil {
			// Keep stdout pure JSON lines for downstream consumers.
			summaryTo = os.Stderr
		}
		fmt.Fprintf(summaryTo, "processed %d timeunits; %d anomalies; %d heavy hitters; stage times: update=%v series=%v detect=%v\n",
			res.Units, res.AnomalyCount, res.HeavyHitterCount,
			res.Timings.UpdatingHierarchies.Round(time.Millisecond),
			res.Timings.CreatingTimeSeries.Round(time.Millisecond),
			res.Timings.DetectingAnomalies.Round(time.Millisecond))
	}
	// Persist the detector for a later -resume before surfacing any run
	// error: an interrupted stream is exactly when a checkpoint matters.
	if *ckptTo != "" {
		if err := writeCheckpoint(t, *ckptTo); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	if jsonSink != nil && jsonSink.Err() != nil {
		return jsonSink.Err()
	}
	if storeSink != nil {
		return storeSink.Err()
	}
	return nil
}

// ckptFS is the filesystem writeCheckpoint runs on — fault.OS in the
// shipped binary; the crash-point test swaps in a fault.Injector to
// audit every failure point of the temp-file-plus-rename protocol.
var ckptFS fault.FS = fault.OS{}

// writeCheckpoint snapshots the detector to path atomically (temp file
// + rename), so a crash mid-write cannot leave a torn checkpoint.
func writeCheckpoint(t *tiresias.Tiresias, path string) error {
	tmp := path + ".tmp"
	f, err := ckptFS.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Snapshot(f); err != nil {
		f.Close()
		ckptFS.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		ckptFS.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		ckptFS.Remove(tmp)
		return err
	}
	return ckptFS.Rename(tmp, path)
}
