package forecast

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 50; i++ {
		e.Update(10)
	}
	if !almostEq(e.Forecast(), 10, 1e-9) {
		t.Fatalf("Forecast = %v, want 10", e.Forecast())
	}
}

func TestEWMAFirstSampleSeedsForecast(t *testing.T) {
	e := NewEWMA(0.3)
	e.Update(7)
	if e.Forecast() != 7 {
		t.Fatalf("Forecast = %v, want 7", e.Forecast())
	}
}

func TestEWMARecurrence(t *testing.T) {
	e := NewEWMA(0.25, 4) // seeded with 4
	e.Update(8)
	want := 0.25*8 + 0.75*4
	if !almostEq(e.Forecast(), want, 1e-12) {
		t.Fatalf("Forecast = %v, want %v", e.Forecast(), want)
	}
}

func TestEWMAScaleAdd(t *testing.T) {
	a := NewEWMA(0.5, 10)
	b := NewEWMA(0.5, 6)
	a.Scale(2)
	if a.Forecast() != 20 {
		t.Fatalf("after Scale(2): %v, want 20", a.Forecast())
	}
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.Forecast() != 26 {
		t.Fatalf("after Add: %v, want 26", a.Forecast())
	}
	hw, err := NewHoltWinters(0.5, 0.1, 0.1, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(hw); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("EWMA.Add(HoltWinters) = %v, want ErrIncompatible", err)
	}
}

func TestHoltWintersValidation(t *testing.T) {
	if _, err := NewHoltWinters(0.5, 0.1, 0.1, 0, nil); err == nil {
		t.Fatal("period 0 must be rejected")
	}
	if _, err := NewHoltWinters(0.5, 0.1, 0.1, 4, make([]float64, 7)); !errors.Is(err, ErrHistory) {
		t.Fatal("short history must be rejected with ErrHistory")
	}
}

// seasonalSeries produces level + trend·t + season[t mod p] (+ noise).
func seasonalSeries(n, p int, level, trendPerUnit, amp, noise float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		s := amp * math.Sin(2*math.Pi*float64(i%p)/float64(p))
		v := level + trendPerUnit*float64(i) + s
		if noise > 0 {
			v += rng.NormFloat64() * noise
		}
		out[i] = v
	}
	return out
}

func TestHoltWintersTracksSeasonalSignal(t *testing.T) {
	p := 24
	series := seasonalSeries(10*p, p, 100, 0, 30, 0, nil)
	hw, err := NewHoltWinters(0.4, 0.05, 0.3, p, series[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	var sumAbs float64
	n := 0
	for i := 2 * p; i < len(series); i++ {
		f := hw.Forecast()
		hw.Update(series[i])
		if i >= 6*p { // after convergence
			sumAbs += math.Abs(f - series[i])
			n++
		}
	}
	mae := sumAbs / float64(n)
	if mae > 2.0 {
		t.Fatalf("converged MAE = %v on a noiseless seasonal signal, want < 2", mae)
	}
}

func TestHoltWintersBeatsEWMAOnSeasonalData(t *testing.T) {
	// §VI: "simple forecasting models like EWMA will be very
	// inaccurate" in the presence of strong periodicity.
	p := 24
	rng := rand.New(rand.NewSource(7))
	series := seasonalSeries(12*p, p, 100, 0, 40, 2, rng)
	hw, err := NewHoltWinters(0.4, 0.05, 0.3, p, series[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	ew := NewEWMA(0.4, series[:2*p]...)
	var hwErr, ewErr float64
	for i := 2 * p; i < len(series); i++ {
		hwErr += math.Abs(hw.Forecast() - series[i])
		ewErr += math.Abs(ew.Forecast() - series[i])
		hw.Update(series[i])
		ew.Update(series[i])
	}
	if hwErr >= ewErr {
		t.Fatalf("Holt-Winters MAE (%v) must beat EWMA (%v) on seasonal data", hwErr, ewErr)
	}
}

// TestHoltWintersLinearity is Lemma 2: the forecast of a sum series
// equals the sum of the forecasts, at every step, exactly.
func TestHoltWintersLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 6
		n := 8 * p
		s1 := seasonalSeries(n, p, 50, 0.1, 10, 1, rng)
		s2 := seasonalSeries(n, p, 20, -0.05, 5, 1, rng)
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = s1[i] + s2[i]
		}
		h1, err1 := NewHoltWinters(0.5, 0.2, 0.3, p, s1[:2*p])
		h2, err2 := NewHoltWinters(0.5, 0.2, 0.3, p, s2[:2*p])
		hs, err3 := NewHoltWinters(0.5, 0.2, 0.3, p, sum[:2*p])
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := 2 * p; i < n; i++ {
			if !almostEq(h1.Forecast()+h2.Forecast(), hs.Forecast(), 1e-6) {
				return false
			}
			h1.Update(s1[i])
			h2.Update(s2[i])
			hs.Update(sum[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestHoltWintersAddEqualsSumModel: merging two models (ADA MERGE)
// must behave identically to a model fitted on the sum series.
func TestHoltWintersAddEqualsSumModel(t *testing.T) {
	p := 6
	n := 8 * p
	rng := rand.New(rand.NewSource(11))
	s1 := seasonalSeries(n, p, 50, 0, 10, 1, rng)
	s2 := seasonalSeries(n, p, 30, 0, 8, 1, rng)
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = s1[i] + s2[i]
	}
	h1, err := NewHoltWinters(0.5, 0.2, 0.3, p, s1[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHoltWinters(0.5, 0.2, 0.3, p, s2[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHoltWinters(0.5, 0.2, 0.3, p, sum[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	merged := Clone(h1)
	if err := merged.Add(h2); err != nil {
		t.Fatal(err)
	}
	for i := 2 * p; i < n; i++ {
		if !almostEq(merged.Forecast(), hs.Forecast(), 1e-6) {
			t.Fatalf("step %d: merged %v != sum-model %v", i, merged.Forecast(), hs.Forecast())
		}
		merged.Update(sum[i])
		hs.Update(sum[i])
	}
}

// TestHoltWintersScaleHalvesForecast: split with ratio r scales the
// forecast trajectory by exactly r when fed the scaled series.
func TestHoltWintersScaleHalvesForecast(t *testing.T) {
	p := 4
	series := seasonalSeries(6*p, p, 40, 0, 10, 0, nil)
	full, err := NewHoltWinters(0.5, 0.2, 0.3, p, series[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	half := Clone(full)
	half.Scale(0.5)
	for i := 2 * p; i < len(series); i++ {
		if !almostEq(half.Forecast(), full.Forecast()/2, 1e-9) {
			t.Fatalf("step %d: half %v != full/2 %v", i, half.Forecast(), full.Forecast()/2)
		}
		full.Update(series[i])
		half.Update(series[i] / 2)
	}
}

// TestHoltWintersSplitMatchesHalfSeriesFit is why the paper's model
// is additive (§VI): a model scaled by 0.5 and fed the halved series
// forecasts exactly as a model fitted on the halved series from the
// start — the exactness ADA's SPLIT relies on. The multiplicative
// recurrences are not linear in the series, so no such scaling exists
// for them.
func TestHoltWintersSplitMatchesHalfSeriesFit(t *testing.T) {
	p := 12
	series := seasonalSeries(6*p, p, 80, 0.5, 30, 3, rand.New(rand.NewSource(3)))
	half := make([]float64, len(series))
	for i, v := range series {
		half[i] = v / 2
	}
	full, err := NewHoltWinters(0.4, 0.05, 0.3, p, series[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	split := Clone(full)
	split.Scale(0.5)
	fit, err := NewHoltWinters(0.4, 0.05, 0.3, p, half[:2*p])
	if err != nil {
		t.Fatal(err)
	}
	for i := 2 * p; i < len(series); i++ {
		if !almostEq(split.Forecast(), fit.Forecast(), 1e-9) {
			t.Fatalf("step %d: split %v != half-series fit %v", i, split.Forecast(), fit.Forecast())
		}
		split.Update(half[i])
		fit.Update(half[i])
	}
}

func TestHoltWintersAddPhaseMismatch(t *testing.T) {
	p := 4
	series := seasonalSeries(2*p, p, 40, 0, 10, 0, nil)
	h1, err := NewHoltWinters(0.5, 0.2, 0.3, p, series)
	if err != nil {
		t.Fatal(err)
	}
	h2 := Clone(h1)
	h2.Update(1) // advance phase
	if err := h1.Add(h2); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("phase-mismatched Add = %v, want ErrIncompatible", err)
	}
	h3, err := NewHoltWinters(0.5, 0.2, 0.3, 2, series)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Add(h3); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("period-mismatched Add = %v, want ErrIncompatible", err)
	}
	if h1.Period() != p {
		t.Fatalf("Period() = %d, want %d", h1.Period(), p)
	}
}

func TestDualSeasonValidation(t *testing.T) {
	if _, err := NewDualSeason(0.5, 0.1, 0.1, 0.7, 0, 4, nil); err == nil {
		t.Fatal("p1=0 must be rejected")
	}
	if _, err := NewDualSeason(0.5, 0.1, 0.1, 0.7, 8, 4, nil); err == nil {
		t.Fatal("p1>p2 must be rejected")
	}
	if _, err := NewDualSeason(0.5, 0.1, 0.1, 1.5, 2, 4, make([]float64, 8)); err == nil {
		t.Fatal("xi>1 must be rejected")
	}
	if _, err := NewDualSeason(0.5, 0.1, 0.1, 0.7, 2, 4, make([]float64, 7)); !errors.Is(err, ErrHistory) {
		t.Fatal("short history must be rejected")
	}
}

// dualSeries builds a signal with both a short and a long period.
func dualSeries(n, p1, p2 int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := 100 +
			25*math.Sin(2*math.Pi*float64(i%p1)/float64(p1)) +
			10*math.Sin(2*math.Pi*float64(i%p2)/float64(p2))
		if rng != nil {
			v += rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestDualSeasonTracksBothPeriods(t *testing.T) {
	p1, p2 := 12, 84 // "day" and "week" in 2-hour units
	series := dualSeries(6*p2, p1, p2, nil)
	d, err := NewDualSeason(0.3, 0.02, 0.4, 0.7, p1, p2, series[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	var sumAbs float64
	n := 0
	for i := 2 * p2; i < len(series); i++ {
		f := d.Forecast()
		d.Update(series[i])
		if i >= 4*p2 {
			sumAbs += math.Abs(f - series[i])
			n++
		}
	}
	mae := sumAbs / float64(n)
	if mae > 3.5 {
		t.Fatalf("dual-season MAE = %v, want < 3.5 on a noiseless dual signal", mae)
	}
}

func TestDualSeasonBeatsSingleSeasonOnDualData(t *testing.T) {
	// The ablation behind the paper's choice of two seasonal factors
	// for CCD.
	p1, p2 := 12, 84
	rng := rand.New(rand.NewSource(3))
	series := dualSeries(6*p2, p1, p2, rng)
	d, err := NewDualSeason(0.3, 0.02, 0.4, 0.7, p1, p2, series[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewHoltWinters(0.3, 0.02, 0.4, p1, series[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	var dErr, sErr float64
	for i := 2 * p2; i < len(series); i++ {
		dErr += math.Abs(d.Forecast() - series[i])
		sErr += math.Abs(single.Forecast() - series[i])
		d.Update(series[i])
		single.Update(series[i])
	}
	if dErr >= sErr {
		t.Fatalf("dual-season MAE (%v) must beat single-season (%v)", dErr, sErr)
	}
}

// TestDualSeasonLinearity extends Lemma 2 to the dual-season model.
func TestDualSeasonLinearity(t *testing.T) {
	p1, p2 := 6, 24
	n := 5 * p2
	rng := rand.New(rand.NewSource(5))
	s1 := dualSeries(n, p1, p2, rng)
	s2 := dualSeries(n, p1, p2, rng)
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = s1[i] + s2[i]
	}
	d1, err := NewDualSeason(0.4, 0.1, 0.3, 0.6, p1, p2, s1[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDualSeason(0.4, 0.1, 0.3, 0.6, p1, p2, s2[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDualSeason(0.4, 0.1, 0.3, 0.6, p1, p2, sum[:2*p2])
	if err != nil {
		t.Fatal(err)
	}
	for i := 2 * p2; i < n; i++ {
		if !almostEq(d1.Forecast()+d2.Forecast(), ds.Forecast(), 1e-6) {
			t.Fatalf("step %d: %v + %v != %v", i, d1.Forecast(), d2.Forecast(), ds.Forecast())
		}
		d1.Update(s1[i])
		d2.Update(s2[i])
		ds.Update(sum[i])
	}
	// Scale/Add round trip.
	c := Clone(d1)
	c.Scale(2)
	if err := c.Add(d1); err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.Forecast(), 3*d1.Forecast(), 1e-9) {
		t.Fatalf("Scale(2)+Add != 3x: %v vs %v", c.Forecast(), 3*d1.Forecast())
	}
	if err := c.Add(NewEWMA(0.5)); !errors.Is(err, ErrIncompatible) {
		t.Fatal("DualSeason.Add(EWMA) must fail")
	}
}

// TestSplitErrorCurveDecays reproduces the shape of Fig. 9: the
// relative error decays exponentially in the iteration count, and a
// larger bias ξ yields a uniformly larger error curve.
func TestSplitErrorCurveDecays(t *testing.T) {
	series := make([]float64, 10)
	for i := range series {
		series[i] = 1 // T[i] = 1, as in the paper's setup
	}
	alpha := 0.5
	small := SplitErrorCurve(alpha, 0.5, series)
	mid := SplitErrorCurve(alpha, 1.0, series)
	big := SplitErrorCurve(alpha, 2.0, series)
	for k := 1; k < len(mid); k++ {
		if mid[k] >= mid[k-1] {
			t.Fatalf("RE must strictly decay: RE[%d]=%v >= RE[%d]=%v", k, mid[k], k-1, mid[k-1])
		}
	}
	for k := range mid {
		if !(big[k] > mid[k] && mid[k] > small[k]) {
			t.Fatalf("error must be ordered by bias at k=%d: %v, %v, %v", k, small[k], mid[k], big[k])
		}
	}
	// Exponential decay with rate (1-α): RE[k+1]/RE[k] ≈ 1-α.
	ratio := mid[5] / mid[4]
	if !almostEq(ratio, 1-alpha, 0.05) {
		t.Fatalf("decay ratio = %v, want ≈ %v", ratio, 1-alpha)
	}
	if got := SplitErrorCurve(alpha, 1, nil); got != nil {
		t.Fatal("empty series must return nil")
	}
}

// sameState reports whether two models capture to bit-identical state.
func sameState(a, b Linear) bool {
	sa, errA := Capture(a)
	sb, errB := Capture(b)
	if errA != nil || errB != nil || sa.Kind != sb.Kind || !slices.Equal(sa.Ints, sb.Ints) || len(sa.Floats) != len(sb.Floats) {
		return false
	}
	for i := range sa.Floats {
		if math.Float64bits(sa.Floats[i]) != math.Float64bits(sb.Floats[i]) {
			return false
		}
	}
	return true
}

// TestInPlaceMatchesFreshConstruction is the property behind an
// engine's recycled models. Re-seeding a stale model of any kind and
// shape leaves exactly the state its constructor builds from the same
// history, and CopyFrom leaves exactly Clone's state, sharing no memory
// with the source. A copy across kinds or seasonal periods, or a
// re-seed from too short a history, is refused and changes nothing.
func TestInPlaceMatchesFreshConstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := 1 + rng.Intn(5)
		p2 := p1 + rng.Intn(8)
		draw := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = rng.NormFloat64() * 50
			}
			return out
		}
		param := func() float64 { return 0.05 + 0.9*rng.Float64() }
		a, b, g, xi := param(), param(), param(), rng.Float64()
		// stale builds models of the three kinds from unrelated
		// parameters and history, then moves them off phase zero.
		stale := func() (*EWMA, *HoltWinters, *DualSeason) {
			h := draw(2*p2 + rng.Intn(9))
			e := NewEWMA(param(), h...)
			hw, err1 := NewHoltWinters(param(), param(), param(), p1, h)
			d, err2 := NewDualSeason(param(), param(), param(), rng.Float64(), p1, p2, h)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			for _, v := range draw(rng.Intn(2 * p2)) {
				e.Update(v)
				hw.Update(v)
				d.Update(v)
			}
			return e, hw, d
		}
		history := draw(2*p2 + rng.Intn(9))
		e, hw, d := stale()
		freshE := NewEWMA(a, history...)
		freshHW, err1 := NewHoltWinters(a, b, g, p1, history)
		freshD, err2 := NewDualSeason(a, b, g, xi, p1, p2, history)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		e.Reseed(a, history)
		if hw.Reseed(a, b, g, history) != nil || d.Reseed(a, b, g, xi, history) != nil {
			return false
		}
		if !sameState(e, freshE) || !sameState(hw, freshHW) || !sameState(d, freshD) {
			return false
		}

		// CopyFrom into stale models of the same shape equals Clone, and
		// the copy shares no memory with its source.
		srcE, srcHW, srcD := stale()
		for _, pair := range [][2]Linear{{e, srcE}, {hw, srcHW}, {d, srcD}} {
			dst, src := pair[0], pair[1]
			want := Clone(src)
			if dst.CopyFrom(src) != nil || !sameState(dst, want) {
				return false
			}
			dst.Update(1e6)
			dst.Scale(3)
			if !sameState(src, want) {
				return false
			}
		}

		// Refusals leave the receiver untouched.
		other, err := NewHoltWinters(a, b, g, p1+1, draw(2*p1+2))
		if err != nil {
			t.Fatal(err)
		}
		otherD, err := NewDualSeason(a, b, g, xi, p1, p2+1, draw(2*p2+2))
		if err != nil {
			t.Fatal(err)
		}
		before := []Linear{Clone(e), Clone(hw), Clone(d)}
		refused := errors.Is(e.CopyFrom(hw), ErrIncompatible) &&
			errors.Is(hw.CopyFrom(other), ErrIncompatible) &&
			errors.Is(hw.CopyFrom(d), ErrIncompatible) &&
			errors.Is(d.CopyFrom(otherD), ErrIncompatible) &&
			errors.Is(d.CopyFrom(e), ErrIncompatible) &&
			errors.Is(hw.Reseed(a, b, g, history[:2*p1-1]), ErrHistory) &&
			errors.Is(d.Reseed(a, b, g, xi, history[:2*p2-1]), ErrHistory)
		return refused && sameState(e, before[0]) && sameState(hw, before[1]) && sameState(d, before[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuietModelsFlushToZero is the regression test for the
// stuck-denormal decay: a model primed on traffic and then fed zeros
// must never hold a subnormal value, and must come to rest. Without
// Flush a decaying float (EWMA's forecast, a Holt-Winters trend)
// reaches 4.9e-324 and stays there (0.6 × 4.9e-324 rounds back to
// 4.9e-324), and every later update takes a microcoded multiply.
//
// Holt-Winters at rest is not all zero: under zero input every state
// with level c, trend 0 and each seasonal slot −c (for two seasons,
// slots summing to −c) is a fixed point, and a primed model settles on
// one. So the test requires the trend, which decays as (1−β)^n, to be
// exactly zero, EWMA's forecast too, and one full seasonal cycle of
// zeros to leave the state bit for bit unchanged.
func TestQuietModelsFlushToZero(t *testing.T) {
	history := make([]float64, 48)
	for i := range history {
		history[i] = float64(20 + 7*(i%4) + 3*(i%12))
	}
	hw, err := NewHoltWinters(0.4, 0.05, 0.3, 4, history)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := NewDualSeason(0.4, 0.05, 0.3, 0.76, 4, 12, history)
	if err != nil {
		t.Fatal(err)
	}
	// (1−β)^n passes under 2^-1022 near n = 13,800 for β = 0.05.
	const quiet, cycle = 16000, 12
	for _, c := range []struct {
		m Linear
		// decaying is the index in Capture's Floats of the float that
		// must reach zero: EWMA's forecast, the models' trend.
		decaying int
	}{{NewEWMA(0.4, history...), 1}, {hw, 4}, {dual, 5}} {
		var st State
		for unit := range quiet + cycle {
			if unit == quiet {
				st, _ = Capture(c.m)
			}
			c.m.Update(0)
			got, err := Capture(c.m)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Floats {
				if v != 0 && math.Abs(v) < 0x1p-1022 {
					t.Fatalf("%s, quiet unit %d: state float %d = %g is subnormal", got.Kind, unit, i, v)
				}
			}
		}
		end, _ := Capture(c.m)
		if v := end.Floats[c.decaying]; v != 0 {
			t.Errorf("%s: state float %d = %g after %d quiet units, want 0", end.Kind, c.decaying, v, quiet)
		}
		if !slices.Equal(st.Ints, end.Ints) || !slices.EqualFunc(st.Floats, end.Floats, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: %d more quiet units moved the state %v to %v", end.Kind, cycle, st.Floats, end.Floats)
		}
		t.Logf("%s at rest: %v", end.Kind, end.Floats)
	}
}
