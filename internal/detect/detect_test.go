package detect

import (
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

func TestThresholdsValidate(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Thresholds{RT: 0, DT: 1}).Validate(); err == nil {
		t.Fatal("RT=0 must be rejected")
	}
	if err := (Thresholds{RT: 1, DT: -1}).Validate(); err == nil {
		t.Fatal("DT<0 must be rejected")
	}
	if _, err := New(Thresholds{}); err == nil {
		t.Fatal("New with bad thresholds must fail")
	}
}

func TestExceedsRequiresBothConditions(t *testing.T) {
	th := Thresholds{RT: 2.8, DT: 8}
	tests := []struct {
		name       string
		actual, fc float64
		want       bool
	}{
		{name: "both exceeded", actual: 40, fc: 10, want: true},
		{name: "ratio only (dip guard)", actual: 11, fc: 3, want: false},  // ratio 3.7 > RT but diff 8 <= DT
		{name: "diff only (peak guard)", actual: 30, fc: 20, want: false}, // diff 10 > DT but ratio 1.5 < RT
		{name: "neither", actual: 10, fc: 9, want: false},
		{name: "zero forecast positive actual", actual: 9, fc: 0, want: true},
		{name: "zero forecast small actual", actual: 5, fc: 0, want: false},    // diff 5 <= 8
		{name: "exact boundary not exceeded", actual: 28, fc: 10, want: false}, // ratio = 2.8 exactly
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := th.Exceeds(tt.actual, tt.fc); got != tt.want {
				t.Fatalf("Exceeds(%v, %v) = %v, want %v", tt.actual, tt.fc, got, tt.want)
			}
		})
	}
}

// TestExceedsFloorsNegativeForecast is the regression test for the
// negative-forecast bug: a Holt-Winters level+trend overshoot on a
// quiet node can predict below zero, and measuring the absolute
// excess against the impossible negative value let ordinary noise
// clear DT (actual 7 - forecast -6.9 = 13.9 > 8) and fire persistent
// false positives. Count series are nonnegative, so the forecast is
// floored at zero before the absolute test.
func TestExceedsFloorsNegativeForecast(t *testing.T) {
	th := Thresholds{RT: 2.8, DT: 8}
	if th.Exceeds(7, -6.9) {
		t.Fatal("noise over a negative forecast must not alarm: the excess over zero is only 7")
	}
	// A genuine excursion above DT still fires against the floor.
	if !th.Exceeds(9, -6.9) {
		t.Fatal("actual 9 over floored forecast 0 exceeds DT and must alarm")
	}
}

func TestExceedsRatioOnlyCase(t *testing.T) {
	// High ratio but small absolute difference (the "dip time"
	// false-positive Definition 4 suppresses).
	th := Thresholds{RT: 2.8, DT: 8}
	if th.Exceeds(4, 1) { // ratio 4 > 2.8 but diff 3 <= 8
		t.Fatal("small absolute excursion at dip must not alarm")
	}
}

func mkState(vals ...[3]float64) *algo.StepState {
	tr := hierarchy.New()
	st := &algo.StepState{Instance: 7}
	for i, v := range vals {
		n := tr.Intern([]string{"n", string(rune('a' + i))})
		st.HeavyHitters = append(st.HeavyHitters, algo.HeavyHitter{
			ID: n, Key: tr.Key(n), Actual: v[0], Forecast: v[1],
		})
	}
	return st
}

func TestScanFlagsOnlyAnomalous(t *testing.T) {
	d, err := New(Thresholds{RT: 2, DT: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.th.RT != 2 {
		t.Fatal("operating point wrong")
	}
	st := mkState(
		[3]float64{30, 5},  // anomalous: ratio 6, diff 25
		[3]float64{10, 9},  // normal
		[3]float64{12, 10}, // ratio too small
	)
	ts := time.Date(2010, 9, 14, 10, 0, 0, 0, time.UTC)
	as := d.Scan(st, ts)
	if len(as) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(as))
	}
	a := as[0]
	if a.Instance != 7 || !a.Time.Equal(ts) || a.Actual != 30 || a.Forecast != 5 {
		t.Fatalf("anomaly = %+v", a)
	}
	if a.Score() != 6 {
		t.Fatalf("Score = %v, want 6", a.Score())
	}
	if (Anomaly{Actual: 3, Forecast: 0}).Score() != 4 {
		t.Fatal("zero-forecast Score wrong")
	}
}
