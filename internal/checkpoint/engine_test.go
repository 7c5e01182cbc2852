package checkpoint

import (
	"reflect"
	"testing"

	"tiresias/internal/algo"
	"tiresias/internal/forecast"
)

// TestEngineForecaster pins the forecaster Engine selects for each
// seasonality, fed 2·p₂ samples so every period fits two cycles.
func TestEngineForecaster(t *testing.T) {
	const p1, p2 = 4, 12
	history := make([]float64, 2*p2)
	for i := range history {
		history[i] = float64(10 + i%p1 + i%p2)
	}
	for _, tc := range []struct {
		name    string
		periods []int
		check   func(forecast.Linear) bool
	}{
		{"none", nil, func(f forecast.Linear) bool {
			e, ok := f.(*forecast.EWMA)
			return ok && e.Alpha == 0.4
		}},
		{"one", []int{p2}, func(f forecast.Linear) bool {
			hw, ok := f.(*forecast.HoltWinters)
			return ok && hw.Period() == p2
		}},
		{"two descending", []int{p2, p1}, func(f forecast.Linear) bool {
			d, ok := f.(*forecast.DualSeason)
			if !ok {
				return false
			}
			q1, q2 := d.Periods()
			return q1 == p1 && q2 == p2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			ec := c.Engine(tc.periods, 0.76)
			if f := ec.NewForecaster(nil, history); !tc.check(f) {
				t.Fatalf("periods %v built %#v", tc.periods, f)
			}
		})
	}
}

// TestEngineCarriesConfig checks Engine copies every engine field of
// the Config and leaves Tree to the caller.
func TestEngineCarriesConfig(t *testing.T) {
	c := DefaultConfig()
	c.Theta, c.WindowLen, c.Rule, c.RuleAlpha = 3, 50, algo.EWMARule, 0.7
	c.RefLevels, c.Lambda, c.Eta = 1, 4, 3
	ec := c.Engine(nil, 0)
	if ec.NewForecaster == nil {
		t.Fatal("Engine built no forecaster factory")
	}
	ec.NewForecaster = nil
	want := algo.Config{Theta: 3, WindowLen: 50, Rule: algo.EWMARule, RuleAlpha: 0.7, RefLevels: 1, Lambda: 4, Eta: 3}
	if !reflect.DeepEqual(ec, want) {
		t.Fatalf("Engine = %+v, want %+v", ec, want)
	}
}

// TestSeasonalityConfigured checks that with AutoSeason off the
// configured periods come back as a copy the caller may keep.
func TestSeasonalityConfigured(t *testing.T) {
	c := DefaultConfig()
	c.AutoSeason, c.SeasonPeriods, c.SeasonXi = false, []int{24, 168}, 0.6
	periods, xi := c.Seasonality(nil)
	if !reflect.DeepEqual(periods, []int{24, 168}) || xi != 0.6 {
		t.Fatalf("Seasonality = %v, %v; want [24 168], 0.6", periods, xi)
	}
	periods[0] = 99
	if c.SeasonPeriods[0] != 24 {
		t.Fatal("Seasonality's periods alias Config.SeasonPeriods")
	}
}
