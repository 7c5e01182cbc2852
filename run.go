package tiresias

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/checkpoint"
	"tiresias/internal/stream"
)

// RunResult summarizes a Run.
type RunResult struct {
	// Anomalies aggregates all detections in time order — only when
	// no sink is registered (with sinks, anomalies stream out and
	// this stays nil so memory is bounded).
	Anomalies []Anomaly
	// AnomalyCount is the total number of detections, regardless of
	// sink configuration.
	AnomalyCount int
	// Units is the number of timeunits processed after warmup.
	Units int
	// Timings accumulates engine stage costs.
	Timings StageTimings
	// HeavyHitterCount is the SHHH set size after the last unit.
	HeavyHitterCount int
}

// ctxCheckEvery bounds how many records may be ingested between two
// context checks, so cancellation is prompt even on dense streams.
const ctxCheckEvery = 256

// Run drains a record source incrementally: records are windowed into
// timeunits on the fly, the first windowLen completed units warm the
// detector up, and every following unit is screened for anomalies the
// moment it completes — peak memory is O(windowLen) timeunits, never
// O(stream). When the source ends, the final partial unit is flushed
// and processed.
//
// Run honors ctx: on cancellation it stops promptly, between two
// records, and returns the partial RunResult alongside the context's
// error. The windowing state lives in the detector, not the call, so
// nothing read is lost: a later Run (or Snapshot, Restore and Run)
// over the records not yet read continues the same warm-up buffer and
// partial unit, and detects exactly what one uninterrupted Run would.
// The same holds across Runs that reach the end of their input: the
// next Run is anchored where the clock left off, records predating it
// are rejected as out-of-order, and any quiet gap is filled with empty
// units so timestamps and seasonal phase stay honest. Gap filling is
// bounded by WithMaxGap; a record past the bound aborts the run with
// a descriptive error.
//
// Internally Run is flat end to end: record paths intern straight to
// dense node IDs in the detector's hierarchy, completed timeunits are
// pooled DenseUnits, and the engine consumes them in place — the warm
// steady state allocates nothing per record.
func (t *Tiresias) Run(ctx context.Context, src Source) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &RunResult{}
	step := func(sr stepResult) {
		res.AnomalyCount += len(sr.anomalies)
		if len(t.opts.sinks) == 0 {
			res.Anomalies = append(res.Anomalies, sr.anomalies...)
		}
		res.Units++
		res.Timings.Add(sr.state.Timings)
		res.HeavyHitterCount = len(sr.state.HeavyHitters)
	}
	sinceCheck := 0
	for {
		if sinceCheck == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		sinceCheck = (sinceCheck + 1) % ctxCheckEvery
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		if err := t.ingest(r, step); err != nil {
			return res, err
		}
	}
	if !t.win.dirty {
		return nil, errors.New("tiresias: empty input stream")
	}
	// Flush the trailing partial unit so no ingested record is lost.
	if err := t.flush(step); err != nil {
		return res, err
	}
	// A stream shorter than the window still warms the detector with
	// whatever history it carried (reduced forecast quality).
	if !t.warm {
		if err := t.finishWarmup(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// window is a detector's Step-1 state (§III, Fig. 3): the windower
// that classifies records into Δ-units, and the completed units
// buffered until the warm-up window of ℓ fills. Run and Manager.FeedBatch
// both drive it through ingest and flush, so a stream's partial unit
// and warm-up buffer live with its detector, and in its checkpoint.
type window struct {
	// w is bound to the detector's tree; nil until first used.
	w *stream.Windower
	// buf holds the completed units of a detector still warming up, as
	// (ID, count) pairs: fewer than windowLen, none once warm.
	buf []*algo.DenseUnit
	// first is the warm-up start, set by the first record (seen).
	first time.Time
	seen  bool
	// dirty reports records in the current unit since the last flush.
	dirty bool
}

// windower returns the detector's windower, creating it on first use:
// anchored at the clock's next unit when warm, at the first record
// otherwise. New and Restore validated delta, so creation cannot fail.
func (t *Tiresias) windower() *stream.Windower {
	if t.win.w != nil {
		return t.win.w
	}
	var w *stream.Windower
	if t.warm {
		w, _ = stream.NewWindowerAt(t.opts.Delta, t.start.Add(time.Duration(t.warmLen+t.instance)*t.opts.Delta))
	} else {
		w, _ = stream.NewWindower(t.opts.Delta)
	}
	w.SetMaxGap(t.opts.MaxGap)
	w.BindTree(t.tree)
	t.win.w = w
	return w
}

// ingest windows one record and advances every unit it completes,
// handing each screened unit's result to step.
func (t *Tiresias) ingest(r Record, step func(stepResult)) error {
	w := t.windower()
	done, err := w.ObserveDense(r)
	if err != nil {
		return err
	}
	if !t.win.seen {
		t.win.first, t.win.seen = w.Start(), true
	}
	t.win.dirty = true
	for _, u := range done {
		if err := t.advance(u, step); err != nil {
			return err
		}
	}
	return nil
}

// flush completes the current partial unit and advances it, when it
// holds records since the last flush; otherwise it is a no-op, so
// repeated deadline flushes never fabricate empty units.
func (t *Tiresias) flush(step func(stepResult)) error {
	if !t.win.dirty {
		return nil
	}
	t.win.dirty = false
	return t.advance(t.win.w.FlushDense(), step)
}

// advance routes one completed dense unit: buffered until the warm-up
// window fills, screened afterwards. The buffer outlives the pooled
// unit, so it keeps a copy of the unit's pairs; once warm, the unit
// flows to the engine's dense step untouched.
func (t *Tiresias) advance(u *algo.DenseUnit, step func(stepResult)) error {
	if !t.warm {
		t.win.buf = append(t.win.buf, u.Pairs())
		if len(t.win.buf) < t.opts.WindowLen {
			return nil
		}
		return t.finishWarmup()
	}
	sr, err := t.screen(u)
	if err != nil {
		return err
	}
	step(sr)
	return nil
}

// restoreWindow rebuilds the windowing state from a checkpoint's STR.
// section. The detector's own gap bound applies, not the one frozen in
// the section.
func (t *Tiresias) restoreWindow(ss *checkpoint.StreamState) error {
	if ss.Windower.Delta != t.opts.Delta {
		return fmt.Errorf("%w: windower delta %v, detector delta %v", ErrBadCheckpoint, ss.Windower.Delta, t.opts.Delta)
	}
	w, err := stream.RestoreWindower(ss.Windower, t.tree)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	w.SetMaxGap(t.opts.MaxGap)
	t.win = window{w: w, buf: ss.WarmBuf, first: ss.First, seen: ss.FirstSeen, dirty: ss.Dirty}
	return nil
}
