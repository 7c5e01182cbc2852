package algo

import (
	"testing"
	"time"
)

func TestMapScales(t *testing.T) {
	tests := []struct {
		name       string
		delta, inc time.Duration
		wantLambda int
		wantEta    int
		wantErr    bool
	}{
		{name: "identity", delta: 15 * time.Minute, inc: 15 * time.Minute, wantLambda: 1, wantEta: 1},
		{name: "zero increment defaults", delta: time.Hour, inc: 0, wantLambda: 1, wantEta: 1},
		{name: "five minute slide", delta: 15 * time.Minute, inc: 5 * time.Minute, wantLambda: 3, wantEta: 2},
		{name: "minute slide", delta: time.Hour, inc: time.Minute, wantLambda: 60, wantEta: 2},
		{name: "increment above delta clamps", delta: 15 * time.Minute, inc: time.Hour, wantLambda: 1, wantEta: 1},
		{name: "non divisor", delta: 15 * time.Minute, inc: 7 * time.Minute, wantErr: true},
		{name: "bad delta", delta: 0, inc: time.Minute, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := MapScales(tt.delta, tt.inc)
			if tt.wantErr {
				if err == nil {
					t.Fatal("MapScales must fail")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Lambda != tt.wantLambda || m.Eta != tt.wantEta {
				t.Fatalf("mapping = %+v, want λ=%d η=%d", m, tt.wantLambda, tt.wantEta)
			}
			if m.Identity() != (tt.wantLambda == 1) {
				t.Fatal("Identity() inconsistent")
			}
			if !m.Identity() && m.EngineDelta != tt.inc {
				t.Fatalf("EngineDelta = %v, want %v", m.EngineDelta, tt.inc)
			}
		})
	}
}

// TestMapScalesEquivalence drives the §V-B6 claim end to end: an ADA
// engine running at resolution ς with λ = Δ/ς coarse scales produces,
// at its coarse scale, the same per-Δ series an engine at resolution Δ
// sees at its base scale.
func TestMapScalesEquivalence(t *testing.T) {
	m, err := MapScales(time.Hour, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Build a fine stream: 64 ς-units with a steady node.
	fineUnits := make([]tu, 64)
	for i := range fineUnits {
		fineUnits[i] = tu{{key("a"), float64(1 + i%3)}}
	}
	// Coarse stream: aggregate every λ fine units.
	var coarseUnits []tu
	for i := 0; i+m.Lambda <= len(fineUnits); i += m.Lambda {
		u := tu{}
		for j := i; j < i+m.Lambda; j++ {
			u = append(u, fineUnits[j]...)
		}
		coarseUnits = append(coarseUnits, u)
	}
	fine, err := NewADA(Config{Theta: 1, WindowLen: 64, Lambda: m.Lambda, Eta: m.Eta})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := NewADA(Config{Theta: 1, WindowLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := initUnits(fine, fineUnits[:8]); err != nil {
		t.Fatal(err)
	}
	for _, u := range fineUnits[8:] {
		if _, err := stepUnit(fine, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := initUnits(coarse, coarseUnits[:2]); err != nil {
		t.Fatal(err)
	}
	for _, u := range coarseUnits[2:] {
		if _, err := stepUnit(coarse, u); err != nil {
			t.Fatal(err)
		}
	}
	n := fine.Tree().Lookup(key("a"))
	got := fine.MultiScaleOf(n, 1) // coarse scale of the fine engine
	nc := coarse.Tree().Lookup(key("a"))
	want := coarse.SeriesOf(nc)
	if len(got) == 0 || len(want) == 0 {
		t.Fatalf("missing series: fine-coarse %d, coarse %d", len(got), len(want))
	}
	// Compare the overlapping tail (alignment by newest complete Δ).
	k := min(len(got), len(want))
	for i := 1; i <= k; i++ {
		g, w := got[len(got)-i], want[len(want)-i]
		if g != w {
			t.Fatalf("Δ-series mismatch %d from end: fine-coarse %v vs coarse %v\n(got %v want %v)", i, g, w, got, want)
		}
	}
}
