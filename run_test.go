package tiresias

import (
	"bytes"
	"context"
	"errors"
	"io"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// synthSource generates records on the fly — one record per call, no
// backing slice — so tests can observe Run's buffering behavior from
// inside Next.
type synthSource struct {
	n      int // records to produce (one per timeunit); < 0 = endless
	i      int
	start  time.Time
	delta  time.Duration
	rate   float64
	burst  map[int]float64 // unit → extra records
	onNext func(i int)
}

func (s *synthSource) Next() (Record, error) {
	if s.n >= 0 && s.i >= s.n {
		return Record{}, io.EOF
	}
	if s.onNext != nil {
		s.onNext(s.i)
	}
	unit := s.i
	r := Record{Path: []string{"pop", "edge"}, Time: s.start.Add(time.Duration(unit) * s.delta)}
	s.i++
	return r, nil
}

// countingSink counts units and anomalies, and records the event
// sequence for ordering checks.
type countingSink struct {
	mu     sync.Mutex
	units  int64
	anoms  int64
	events []string // "A:<key>" and "U:<instance>"
}

func (s *countingSink) OnAnomaly(a Anomaly) {
	s.mu.Lock()
	defer s.mu.Unlock()
	atomic.AddInt64(&s.anoms, 1)
	s.events = append(s.events, "A:"+string(a.Key))
}

func (s *countingSink) OnUnit(ev UnitEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	atomic.AddInt64(&s.units, 1)
	s.events = append(s.events, "U")
}

func (s *countingSink) unitCount() int64 { return atomic.LoadInt64(&s.units) }

// TestRunIsIncremental proves Run processes units while the source is
// still being drained — the defining difference from the old
// Collect-then-process batch path. With one record per timeunit and
// window w, by the time record i (i > w+2) is requested, at least
// i−w−2 units must already have reached the sink.
func TestRunIsIncremental(t *testing.T) {
	const (
		window = 16
		total  = 2000
	)
	sink := &countingSink{}
	var maxLag int
	src := &synthSource{
		n:     total,
		start: start(),
		delta: time.Minute,
		onNext: func(i int) {
			if i <= window+2 {
				return
			}
			// Units completed so far: i-1 (record i opens unit i);
			// window of them warmed the detector.
			expect := int64(i - 1 - window)
			if lag := int(expect - sink.unitCount()); lag > maxLag {
				maxLag = lag
			}
		},
	}
	tr, err := New(
		WithDelta(time.Minute),
		WithWindowLen(window),
		WithTheta(0.5),
		WithSeasonality(1.0, 4),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != total-window {
		t.Fatalf("processed %d units, want %d", res.Units, total-window)
	}
	// Every unit must be screened as soon as it completes: the sink
	// may trail the source by at most one unit in flight.
	if maxLag > 1 {
		t.Fatalf("Run buffered %d units before processing — not incremental", maxLag)
	}
	if res.Anomalies != nil {
		t.Fatalf("RunResult.Anomalies must stay nil with a sink; got %d", len(res.Anomalies))
	}
}

// TestRunHoldsWindowMemoryOn100kRecords runs the acceptance-scale
// stream: 100k records through a small window with a sink. Bounded
// buffering is asserted structurally (the incrementality invariant
// above); this test additionally pins that the full stream completes
// and every record lands in exactly one unit.
func TestRunHoldsWindowMemoryOn100kRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-record soak skipped in -short mode")
	}
	const (
		window       = 64
		units        = 2000
		perUnit      = 50 // 100k records total
		totalRecords = units * perUnit
	)
	sink := &countingSink{}
	i := 0
	src := SourceFunc(func() (Record, error) {
		if i >= totalRecords {
			return Record{}, io.EOF
		}
		unit := i / perUnit
		r := Record{Path: []string{"pop", "edge"}, Time: start().Add(time.Duration(unit) * time.Minute)}
		i++
		return r, nil
	})
	tr, err := New(
		WithDelta(time.Minute),
		WithWindowLen(window),
		WithTheta(5),
		WithSeasonality(1.0, 8),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != units-window {
		t.Fatalf("processed %d units, want %d", res.Units, units-window)
	}
	if got := sink.unitCount(); got != int64(res.Units) {
		t.Fatalf("sink saw %d units, result says %d", got, res.Units)
	}
}

// SourceFunc adapts a function to the Source interface (test helper).
type SourceFunc func() (Record, error)

func (f SourceFunc) Next() (Record, error) { return f() }

// TestRunStopsOnContextCancel cancels mid-run from inside the source
// and requires Run to stop within one context-check interval instead
// of draining the endless stream.
func TestRunStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5000
	var afterCancel int
	src := &synthSource{
		n:     -1, // endless
		start: start(),
		delta: time.Minute,
		onNext: func(i int) {
			if i == cancelAt {
				cancel()
			}
			if i > cancelAt {
				afterCancel++
			}
		},
	}
	tr, err := New(WithDelta(time.Minute), WithWindowLen(8), WithTheta(0.5), WithSeasonality(1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled Run must return the partial result")
	}
	if res.Units == 0 {
		t.Fatal("partial result should include units processed before cancel")
	}
	if afterCancel > ctxCheckEvery {
		t.Fatalf("Run consumed %d records after cancel, want <= %d", afterCancel, ctxCheckEvery)
	}
}

// TestSinkOrdering pins the per-unit delivery contract: all OnAnomaly
// calls for a unit come before its OnUnit, and units arrive in order.
func TestSinkOrdering(t *testing.T) {
	sink := &countingSink{}
	tr, err := New(
		WithWindowLen(8),
		WithTheta(3),
		WithSeasonality(1.0, 4),
		WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	stepUnits(t, tr, repeat(counts{"west/sf": 6}, 8)...)
	// quiet, burst, quiet: exactly one anomalous unit.
	stepUnits(t, tr, counts{"west/sf": 6}, counts{"west/sf": 80}, counts{"west/sf": 6})
	// Unit 1 is quiet, unit 2 bursts, unit 3 is quiet again: the
	// burst's anomalies must all land between the first and second
	// OnUnit, i.e. "U (A:…)+ U U".
	seq := strings.Join(sink.events, " ")
	if !regexp.MustCompile(`^U( A:[^ ]+)+ U U$`).MatchString(seq) {
		t.Fatalf("sink sequence = %q, want anomalies delivered before their unit's OnUnit", seq)
	}
}

// TestMultipleSinksAllDelivered registers two sinks and checks both
// see the same events, in registration order per event.
func TestMultipleSinksAllDelivered(t *testing.T) {
	a, b := &countingSink{}, &countingSink{}
	ix := NewAnomalyIndex(0)
	tr, err := New(
		WithWindowLen(8),
		WithTheta(3),
		WithSeasonality(1.0, 4),
		WithThresholds(Thresholds{RT: 2.0, DT: 5}),
		WithSink(a),
		WithSink(b),
		WithSink(NewIndexSink(ix, "s")),
	)
	if err != nil {
		t.Fatal(err)
	}
	stepUnits(t, tr, repeat(counts{"n": 6}, 8)...)
	stepUnits(t, tr, counts{"n": 90})
	if a.unitCount() != 1 || b.unitCount() != 1 {
		t.Fatalf("sink unit counts = %d, %d; want 1, 1", a.unitCount(), b.unitCount())
	}
	if atomic.LoadInt64(&a.anoms) == 0 || ix.Len() == 0 {
		t.Fatal("anomaly not delivered to all sinks")
	}
}

// TestJSONSinkWritesLines checks the JSON adapter emits one object per
// anomaly and latches write errors.
func TestJSONSinkWritesLines(t *testing.T) {
	var buf strings.Builder
	s := NewJSONSink(&buf)
	s.OnAnomaly(Anomaly{Key: KeyOf([]string{"a"}), Actual: 10})
	s.OnAnomaly(Anomaly{Key: KeyOf([]string{"b"}), Actual: 20})
	s.OnUnit(UnitEvent{})
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	bad := NewJSONSink(failingWriter{})
	bad.OnAnomaly(Anomaly{Key: KeyOf([]string{"a"})})
	if bad.Err() == nil {
		t.Fatal("write error not latched")
	}
}

// TestReadAnomaliesRoundTrip reads back what JSONSink wrote, field
// for field, wall-clock time included.
func TestReadAnomaliesRoundTrip(t *testing.T) {
	want := []Anomaly{
		{Key: KeyOf([]string{"vho1"}), Depth: 1, Instance: 10, Time: time.Date(2010, 9, 14, 8, 0, 0, 0, time.UTC), Actual: 40, Forecast: 5},
		{Key: KeyOf([]string{"vho1", "io2"}), Depth: 2, Instance: 12, Actual: 30, Forecast: 4.25},
	}
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	for _, a := range want {
		s.OnAnomaly(a)
	}
	got, err := ReadAnomalies(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d anomalies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !got[i].Time.Equal(want[i].Time) || got[i].Forecast != want[i].Forecast || got[i].Instance != want[i].Instance {
			t.Fatalf("anomaly %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := ReadAnomalies(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Fatalf("empty file: %v, %v; want no anomalies and no error", got, err)
	}
}

// TestReadAnomaliesRejectsOtherFormats fails truncated input and the
// JSON array older cmd/tiresias builds wrote, naming the format.
func TestReadAnomaliesRejectsOtherFormats(t *testing.T) {
	for name, in := range map[string]string{
		"truncated":  "{",
		"json array": `[{"key":"vho1","depth":1,"instance":4}]`,
		"bad line 2": `{"key":"vho1"}` + "\n" + `{"key":`,
	} {
		_, err := ReadAnomalies(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "JSON lines") {
			t.Errorf("%s: err = %v, want one naming JSON lines", name, err)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestChannelSinkDelivers drains a channel sink concurrently.
func TestChannelSinkDelivers(t *testing.T) {
	ch := make(chan Anomaly, 4)
	s := NewChannelSink(ch)
	go s.OnAnomaly(Anomaly{Key: KeyOf([]string{"x"})})
	select {
	case a := <-ch:
		if a.Key != KeyOf([]string{"x"}) {
			t.Fatalf("wrong anomaly: %+v", a)
		}
	case <-time.After(time.Second):
		t.Fatal("channel sink did not deliver")
	}
}

// TestRunResumeKeepsClockAndRejectsRewinds pins the multi-Run resume
// contract: the second Run is anchored where the first left off, a
// quiet gap is filled with empty units so anomaly timestamps stay on
// the wall clock, and records rewinding behind the clock error out.
func TestRunResumeKeepsClockAndRejectsRewinds(t *testing.T) {
	mk := func(from, to, burstAt int) []Record {
		var out []Record
		for u := from; u < to; u++ {
			n := 1
			if u == burstAt {
				n = 50
			}
			for i := 0; i < n; i++ {
				out = append(out, Record{Path: []string{"a", "b"}, Time: start().Add(time.Duration(u) * time.Minute)})
			}
		}
		return out
	}
	tr, err := New(
		WithDelta(time.Minute), WithWindowLen(8), WithTheta(0.5),
		WithSeasonality(1.0, 4), WithThresholds(Thresholds{RT: 2, DT: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), NewSliceSource(mk(0, 16, -1))); err != nil {
		t.Fatal(err)
	}
	// Resume 5 units later with a burst at unit 25: the gap must be
	// filled and the anomaly stamped at the true wall clock.
	res, err := tr.Run(context.Background(), NewSliceSource(mk(21, 30, 25)))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnomalyCount == 0 {
		t.Fatal("resumed run missed the burst")
	}
	want := start().Add(25 * time.Minute)
	for _, a := range res.Anomalies {
		if a.Actual > 40 && !a.Time.Equal(want) {
			t.Fatalf("resumed anomaly time = %v, want %v", a.Time, want)
		}
	}
	// A third Run whose records rewind behind the clock must error.
	if _, err := tr.Run(context.Background(), NewSliceSource(mk(3, 5, -1))); err == nil {
		t.Fatal("rewinding resume must be rejected as out-of-order")
	}
}

// cancelSource serves recs and cancels a context once cancelAt records
// have been read; read counts the records Run consumed.
type cancelSource struct {
	recs     []Record
	read     int
	cancelAt int
	cancel   context.CancelFunc
}

func (s *cancelSource) Next() (Record, error) {
	if s.read == s.cancelAt {
		s.cancel()
	}
	if s.read >= len(s.recs) {
		return Record{}, io.EOF
	}
	s.read++
	return s.recs[s.read-1], nil
}

// checkCancelledRunResumes cancels a Run of recs after cancelAt
// records, with the detector warm or not as wantWarm says and records
// of the unit in progress held, then resumes over the records it did
// not read — on the same detector, or on one restored from its
// Snapshot — and requires the anomalies, unit count and final Snapshot
// bytes of one uninterrupted Run.
func checkCancelledRunResumes(t *testing.T, opts []Option, recs []Record, cancelAt int, wantWarm, restore bool) {
	t.Helper()
	ref, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background(), NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{recs: recs, cancelAt: cancelAt, cancel: cancel}
	res1, err := det.Run(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first Run = %v, want context.Canceled", err)
	}
	if src.read >= len(recs) || det.Warm() != wantWarm || !det.win.dirty {
		t.Fatalf("cancelled after %d of %d records, warm %v, partial unit %v; want a partial unit and warm %v",
			src.read, len(recs), det.Warm(), det.win.dirty, wantWarm)
	}
	resumed := det
	if restore {
		var buf bytes.Buffer
		if err := det.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if resumed, err = Restore(&buf); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := resumed.Run(context.Background(), NewSliceSource(recs[src.read:]))
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]Anomaly(nil), res1.Anomalies...), res2.Anomalies...)
	sameAnomalies(t, "resumed run", want.Anomalies, got)
	if len(want.Anomalies) == 0 || res1.Units+res2.Units != want.Units {
		t.Fatalf("units %d+%d, want %d; %d anomalies (want some)", res1.Units, res2.Units, want.Units, len(want.Anomalies))
	}
	var a, b bytes.Buffer
	if err := ref.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("resumed detector snapshot (%d bytes) differs from the uninterrupted one (%d bytes)", b.Len(), a.Len())
	}
}

// TestRunResumesAfterCancelDuringWarmup cancels a Run while the
// detector is still buffering its warm-up window, then resumes it on
// the same detector (and, as a variant, through Snapshot/Restore).
func TestRunResumesAfterCancelDuringWarmup(t *testing.T) {
	ds := ckptDataset(t, 120, 51)
	opts := []Option{WithWindowLen(48), WithTheta(8), WithSeasonality(1.0, 24)}
	for _, restore := range []bool{false, true} {
		checkCancelledRunResumes(t, opts, ds.Records, len(ds.Records)/6, false, restore)
	}
}

// TestRunResumesAfterCancelMidUnitThroughRestore cancels a warm Run in
// the middle of a unit, snapshots and restores the detector, and
// resumes on the restored one (and, as a variant, on the same one).
func TestRunResumesAfterCancelMidUnitThroughRestore(t *testing.T) {
	ds := ckptDataset(t, 120, 52)
	opts := []Option{WithWindowLen(48), WithTheta(8), WithSeasonality(1.0, 24)}
	cancelAt := 2 * len(ds.Records) / 3
	// Run notices the cancellation at its next context check.
	stop := (cancelAt/ctxCheckEvery + 1) * ctxCheckEvery
	delta := 15 * time.Minute
	if !ds.Records[stop-1].Time.Truncate(delta).Equal(ds.Records[stop].Time.Truncate(delta)) {
		t.Fatalf("record %d starts a unit; pick a cut inside one", stop)
	}
	for _, restore := range []bool{true, false} {
		checkCancelledRunResumes(t, opts, ds.Records, cancelAt, true, restore)
	}
}
