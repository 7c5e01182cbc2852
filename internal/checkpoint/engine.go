package checkpoint

import (
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/seasonal"
)

// DefaultConfig is the detector a server runs when no option changes
// it: Δ = 15 min, a one-week window, θ = 10, the paper's operating
// thresholds, Long-Term-History with h = 2, Holt-Winters 0.4/0.05/0.3,
// and Step-3 seasonality analysis at warm-up.
func DefaultConfig() Config {
	return Config{
		Delta:      15 * time.Minute,
		WindowLen:  672,
		Theta:      10,
		Thresholds: detect.DefaultThresholds(),
		Rule:       algo.LongTermHistory,
		RuleAlpha:  0.4,
		RefLevels:  2,
		HWAlpha:    0.4,
		HWBeta:     0.05,
		HWGamma:    0.3,
		AutoSeason: true,
		SeasonXi:   0.76,
		MaxGap:     100_000,
	}
}

// Seasonality picks the seasonal periods (in timeunits, at most two)
// and the weight ξ of the first that Engine forecasts with. With
// AutoSeason it is Step 3: FFT + wavelet analysis of the warm-up
// units' totals. Otherwise it returns a copy of SeasonPeriods and
// SeasonXi, and units are not read.
func (c *Config) Seasonality(units []*algo.DenseUnit) (periods []int, xi float64) {
	if !c.AutoSeason {
		return append([]int(nil), c.SeasonPeriods...), c.SeasonXi
	}
	totals := make([]float64, len(units))
	for i, u := range units {
		totals[i] = u.Total()
	}
	peaks := seasonal.DominantPeriods(totals, c.Delta, 0.2, 2)
	// Cross-check with the wavelet detail energies: keep FFT peaks
	// only when the decomposition shows real multi-scale structure.
	if len(totals) >= 8 {
		levels := 1
		for (1 << (levels + 1)) < len(totals) {
			levels++
		}
		wl := seasonal.Decompose(totals, min(levels, 8))
		if _, ok := wl.DominantScale(); !ok {
			peaks = nil
		}
	}
	for _, p := range peaks {
		units := int(p.PeriodUnits + 0.5)
		if units >= 2 && 2*units <= len(totals) {
			periods = append(periods, units)
		}
	}
	xi = c.SeasonXi
	if len(peaks) >= 2 {
		xi = seasonal.SeasonWeight(peaks[0].Magnitude, peaks[1].Magnitude)
	}
	return periods, xi
}

// Engine is the engine configuration c selects under the given
// seasonality (see Seasonality): every algo.Config field but Tree,
// which the caller sets. The forecaster is EWMA(HWAlpha) with no
// period (the configured α, not algo.DefaultFactory's fixed 0.5),
// Holt-Winters with one, and dual-season Holt-Winters (shorter period
// first, ξ weighing it) with two.
func (c *Config) Engine(periods []int, xi float64) algo.Config {
	a, b, g := c.HWAlpha, c.HWBeta, c.HWGamma
	f := algo.EWMAFactory(a)
	if len(periods) == 1 {
		f = algo.HoltWintersFactory(a, b, g, periods[0])
	} else if len(periods) > 1 {
		p1, p2 := periods[0], periods[1]
		f = algo.DualSeasonFactory(a, b, g, xi, min(p1, p2), max(p1, p2))
	}
	return algo.Config{
		Theta:         c.Theta,
		WindowLen:     c.WindowLen,
		Rule:          c.Rule,
		RuleAlpha:     c.RuleAlpha,
		RefLevels:     c.RefLevels,
		NewForecaster: f,
		Lambda:        c.Lambda,
		Eta:           c.Eta,
	}
}
