package tiresias

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
)

func start() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) }

// counts is one timeunit's integer category counts, keyed by
// slash-joined path ("west/sf").
type counts map[string]int

// repeat returns n copies of one unit's counts.
func repeat(u counts, n int) []counts {
	out := make([]counts, n)
	for i := range out {
		out[i] = u
	}
	return out
}

// recordsOf expands integer counts into records: unit i's records, in
// path order, are stamped at at + i·delta.
func recordsOf(at time.Time, delta time.Duration, units ...counts) []Record {
	var out []Record
	for i, u := range units {
		paths := make([]string, 0, len(u))
		for p := range u {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			for n := 0; n < u[p]; n++ {
				out = append(out, Record{Path: strings.Split(p, "/"), Time: at.Add(time.Duration(i) * delta)})
			}
		}
	}
	return out
}

// stepUnits feeds tr whole timeunits of integer counts: each unit's
// records land at the start of the detector's next unit (start() on a
// fresh detector), and the unit is flushed. An empty unit is screened
// when the next unit's records arrive. It returns the result of every
// unit screened.
func stepUnits(t testing.TB, tr *Tiresias, units ...counts) []stepResult {
	t.Helper()
	var out []stepResult
	step := func(sr stepResult) { out = append(out, sr) }
	at := tr.windower().Start()
	if at.IsZero() {
		at = start()
	}
	for _, u := range units {
		for _, r := range recordsOf(at, tr.Delta(), u) {
			if err := tr.ingest(r, step); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.flush(step); err != nil {
			t.Fatal(err)
		}
		at = at.Add(tr.Delta())
	}
	return out
}

// TestNewValidation: New refuses every option value outside its range,
// with an error that names the setting, instead of accepting it and
// failing a window later at warm-up.
func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
		want string // in the error
	}{
		{name: "bad delta", opts: []Option{WithDelta(0)}, want: "delta"},
		{name: "bad window", opts: []Option{WithWindowLen(1)}, want: "window length"},
		{name: "too many periods", opts: []Option{WithSeasonality(0.5, 2, 3, 4)}, want: "seasonal periods"},
		{name: "bad period", opts: []Option{WithSeasonality(0.5, 0)}, want: "seasonal period"},
		{name: "bad thresholds", opts: []Option{WithThresholds(Thresholds{})}, want: "RT"},
		{name: "zero theta", opts: []Option{WithTheta(0)}, want: "WithTheta"},
		{name: "NaN theta", opts: []Option{WithTheta(math.NaN())}, want: "WithTheta"},
		{name: "negative reference levels", opts: []Option{WithReferenceLevels(-1)}, want: "WithReferenceLevels"},
		{name: "unknown split rule", opts: []Option{WithSplitRule(SplitRule(9))}, want: "WithSplitRule"},
		{name: "zero split rule", opts: []Option{WithSplitRule(0)}, want: "WithSplitRule"},
		{name: "multi-scale base 1", opts: []Option{WithMultiScale(1, 3)}, want: "WithMultiScale"},
		{name: "zero EWMA alpha", opts: []Option{WithSplitEWMAAlpha(0)}, want: "WithSplitEWMAAlpha"},
		{name: "EWMA alpha above 1", opts: []Option{WithSplitEWMAAlpha(1.5)}, want: "WithSplitEWMAAlpha"},
		{name: "negative Holt-Winters alpha", opts: []Option{WithHoltWinters(-0.1, 0.05, 0.3)}, want: "WithHoltWinters"},
		{name: "Holt-Winters beta above 1", opts: []Option{WithHoltWinters(0.4, 1.5, 0.3)}, want: "WithHoltWinters"},
		{name: "NaN Holt-Winters gamma", opts: []Option{WithHoltWinters(0.4, 0.05, math.NaN())}, want: "WithHoltWinters"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.opts...)
			if err == nil {
				t.Fatal("New must fail")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not name %s", err, tt.want)
			}
		})
	}
}

func TestLifecycleGuards(t *testing.T) {
	tr, err := New(WithWindowLen(8), WithTheta(3))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Warm() || tr.Engine() != nil || tr.HeavyHitters() != nil {
		t.Fatal("a fresh detector must be cold, with no engine and no heavy hitters")
	}
	if _, err := tr.Run(context.Background(), NewSliceSource(nil)); err == nil {
		t.Fatal("empty source must fail")
	}
	if got := stepUnits(t, tr, repeat(counts{"a": 5}, 7)...); len(got) != 0 || tr.Warm() {
		t.Fatalf("7 of 8 warm-up units: screened %d, warm %v; want 0, cold", len(got), tr.Warm())
	}
	stepUnits(t, tr, counts{"a": 5})
	if !tr.Warm() {
		t.Fatal("the 8th unit must complete warm-up")
	}
	if tr.Delta() != 15*time.Minute {
		t.Fatal("default Delta wrong")
	}
	if tr.Engine() == nil {
		t.Fatal("Engine must be available after warm-up")
	}
	if hh := tr.HeavyHitters(); len(hh) == 0 {
		t.Fatal("warmup SHHH empty")
	}
}

// genDataset builds a small seasonal dataset with one injected spike.
func genDataset(t *testing.T, units int, anoms []gen.AnomalySpec) *gen.Dataset {
	t.Helper()
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{4, 3}, LevelPrefix: []string{"v", "io"}},
		Start:           start(),
		Units:           units,
		Delta:           15 * time.Minute,
		BaseRate:        40,
		DiurnalStrength: 0.5,
		ZipfS:           0.8,
		Seed:            42,
		Anomalies:       anoms,
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunDetectsInjectedAnomaly(t *testing.T) {
	const warm = 96 // one day
	spike := gen.AnomalySpec{
		Path:         []string{"v1"},
		StartUnit:    warm + 20,
		EndUnit:      warm + 24,
		ExtraPerUnit: 400,
	}
	d := genDataset(t, warm+40, []gen.AnomalySpec{spike})
	tr, err := New(
		WithWindowLen(warm),
		WithTheta(5),
		WithSeasonality(1.0, 96), // daily season, known by construction
		WithThresholds(Thresholds{RT: 2.5, DT: 10}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 40 {
		t.Fatalf("processed %d units, want 40", res.Units)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("injected spike not detected")
	}
	if res.AnomalyCount != len(res.Anomalies) {
		t.Fatalf("AnomalyCount = %d, len(Anomalies) = %d", res.AnomalyCount, len(res.Anomalies))
	}
	target := hierarchy.KeyOf([]string{"v1"})
	found := false
	for _, a := range res.Anomalies {
		inWindow := a.Instance >= 20 && a.Instance < 26
		if inWindow && target.IsAncestorOf(a.Key) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no anomaly under v1 in the spike window; got %+v", res.Anomalies)
	}
}

func TestQuietStreamYieldsFewAnomalies(t *testing.T) {
	const warm = 96
	d := genDataset(t, warm+40, nil)
	tr, err := New(
		WithWindowLen(warm),
		WithTheta(5),
		WithSeasonality(1.0, 96),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	// A clean seasonal stream should produce almost no alarms with
	// the paper's thresholds.
	if len(res.Anomalies) > 4 {
		t.Fatalf("too many false alarms on a quiet stream: %d", len(res.Anomalies))
	}
}

func TestAutoSeasonalityPicksDailyPeriod(t *testing.T) {
	// Hourly units over 8 days with strong diurnal pattern: the
	// analyzer should select a period near 24 units.
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{3}},
		Start:           start(),
		Units:           8 * 24,
		Delta:           time.Hour,
		BaseRate:        200,
		DiurnalStrength: 0.7,
		ZipfS:           0.5,
		Seed:            7,
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(WithDelta(time.Hour), WithWindowLen(cfg.Units), WithTheta(5), WithAutoSeasonality())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), NewSliceSource(d.Records)); err != nil {
		t.Fatal(err)
	}
	ps := tr.SeasonalPeriods()
	if len(ps) == 0 {
		t.Fatal("no seasonal period detected")
	}
	if ps[0] < 20 || ps[0] > 28 {
		t.Fatalf("detected period = %d units, want ≈ 24", ps[0])
	}
}

func TestRunEmptySource(t *testing.T) {
	tr, err := New(WithWindowLen(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), NewSliceSource(nil)); err == nil {
		t.Fatal("empty source must fail")
	}
}

func TestRunShortStreamStillWarms(t *testing.T) {
	// Fewer units than the window: Run warms with what it has and
	// screens nothing, like the old Collect-based batch path.
	const warm = 96
	d := genDataset(t, 10, nil)
	tr, err := New(WithWindowLen(warm), WithTheta(5), WithSeasonality(1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 0 {
		t.Fatalf("short stream screened %d units, want 0", res.Units)
	}
	if !tr.Warm() {
		t.Fatal("short stream must still warm the detector")
	}
}

func TestShortWarmupKeepsClockHonest(t *testing.T) {
	// A stream shorter than the window warms up on what it carried: the
	// units screened after it must be stamped from the actual history
	// length, not ℓ.
	var starts []time.Time
	tr, err := New(WithWindowLen(672), WithTheta(1), WithSeasonality(1.0, 4),
		WithSink(SinkFuncs{Unit: func(ev UnitEvent) { starts = append(starts, ev.Start) }}))
	if err != nil {
		t.Fatal(err)
	}
	history := recordsOf(start(), tr.Delta(), repeat(counts{"a": 5}, 10)...)
	if _, err := tr.Run(context.Background(), NewSliceSource(history)); err != nil {
		t.Fatal(err)
	}
	stepUnits(t, tr, counts{"a": 5})
	want := start().Add(10 * 15 * time.Minute)
	if len(starts) != 1 || !starts[0].Equal(want) {
		t.Fatalf("unit starts = %v, want [%v] (short warmup must not skew the clock)", starts, want)
	}
}

// TestConfiguredSmoothingHonoredWithoutSeasonality is the regression
// test for the forecaster-plumbing bug: with no seasonal period the
// factory returned DefaultFactory's fixed EWMA(0.5) and silently
// discarded the α configured via WithHoltWinters. A 0.5-smoothing
// model absorbs a sustained anomaly after its first unit (one update
// moves the forecast halfway to the spike, past actual/RT), so
// detection of multi-unit incidents collapsed to onset-only. With the
// configured slow smoothing the spike must stay flagged across all
// four units.
func TestConfiguredSmoothingHonoredWithoutSeasonality(t *testing.T) {
	tr, err := New(
		WithWindowLen(12), WithTheta(0.5),
		WithThresholds(Thresholds{RT: 2.8, DT: 8}),
		WithHoltWinters(0.1, 0.02, 0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	key := hierarchy.KeyOf([]string{"a"})
	stepUnits(t, tr, repeat(counts{"a": 12}, 12)...)
	for unit := 0; unit < 4; unit++ {
		sr := stepUnits(t, tr, counts{"a": 200})[0]
		found := false
		for _, a := range sr.anomalies {
			if a.Key == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("spike unit %d not flagged: the configured α=0.1 was not honored", unit)
		}
	}
}
