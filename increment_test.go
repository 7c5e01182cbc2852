package tiresias

import (
	"testing"
	"time"

	"tiresias/internal/hierarchy"
)

func TestWithIncrementValidation(t *testing.T) {
	if _, err := New(WithDelta(15*time.Minute), WithIncrement(7*time.Minute)); err == nil {
		t.Fatal("non-divisor increment must be rejected")
	}
}

func TestWithIncrementRunsAtFineResolution(t *testing.T) {
	// Δ = 1h, ς = 15m: the detector must run at 15-minute resolution
	// with λ=4 coarse scales.
	tr, err := New(
		WithDelta(time.Hour),
		WithIncrement(15*time.Minute),
		WithWindowLen(8), // 8 Δ-units → 32 ς-units internally
		WithTheta(3),
		WithSeasonality(1.0, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delta() != 15*time.Minute {
		t.Fatalf("engine delta = %v, want 15m", tr.Delta())
	}
	units := make([]Timeunit, 32)
	for i := range units {
		units[i] = Timeunit{hierarchy.KeyOf([]string{"a"}): 4}
	}
	if err := tr.Warmup(units, time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := tr.ProcessUnit(Timeunit{hierarchy.KeyOf([]string{"a"}): 4}); err != nil {
			t.Fatal(err)
		}
	}
	ada := tr.Engine()
	n := ada.Tree().Lookup(hierarchy.KeyOf([]string{"a"}))
	coarse := ada.MultiScaleOf(n, 1)
	if len(coarse) == 0 {
		t.Fatal("no Δ-scale series maintained")
	}
	for _, v := range coarse {
		if v != 16 { // λ=4 fine units of 4 each
			t.Fatalf("Δ-scale series = %v, want all 16", coarse)
		}
	}
}

func TestWithIncrementIdentity(t *testing.T) {
	tr, err := New(WithDelta(15*time.Minute), WithIncrement(15*time.Minute), WithWindowLen(4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delta() != 15*time.Minute {
		t.Fatalf("delta changed: %v", tr.Delta())
	}
}
