package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/evalx"
	"tiresias/internal/forecast"
	"tiresias/internal/seasonal"
	"tiresias/internal/shhh"
)

// Fig1 reproduces Fig. 1: per-level CCDFs of normalized counts across
// nodes and timeunits, for (a) CCD trouble issues, (b) CCD network
// locations, and (c) SCD network locations. The paper's headline
// observation — lower levels are overwhelmingly sparse (≈93% of CO-
// level node-units are empty in CCD) — is reported as the zero
// fraction per level.
func Fig1(p Profile) (*Result, error) {
	t := &table{
		title:  "Fig. 1 — CCDF of normalized counts per hierarchy level",
		header: []string{"Dataset", "Level", "ZeroFrac", "P(X>=0.01)", "P(X>=0.1)", "Points"},
	}
	vals := map[string]float64{}
	add := func(name string, w *Workload, maxDepth int) {
		perLevel := levelSeries(w, maxDepth)
		for depth := 1; depth <= maxDepth; depth++ {
			values := perLevel[depth]
			if len(values) == 0 {
				continue
			}
			zero := 0
			for _, v := range values {
				if v == 0 {
					zero++
				}
			}
			zeroFrac := float64(zero) / float64(len(values))
			pts := evalx.CCDF(values)
			t.addRow(name, fmt.Sprintf("%d", depth), pct(zeroFrac),
				f3(ccdfAt(pts, 0.01)), f3(ccdfAt(pts, 0.1)), fmt.Sprintf("%d", len(pts)))
			vals[fmt.Sprintf("%s:L%d:zeroFrac", name, depth)] = zeroFrac
		}
	}
	wT, err := CCDTroubleWorkload(p)
	if err != nil {
		return nil, err
	}
	add("CCD-trouble", wT, 4)
	wN, err := CCDNetWorkload(p, nil)
	if err != nil {
		return nil, err
	}
	add("CCD-netpath", wN, 4)
	wS, err := SCDWorkload(p)
	if err != nil {
		return nil, err
	}
	add("SCD", wS, 3)
	t.addNote("paper: deep levels are sparse (CCD CO-level ≈93%% empty node-units); CCDF mass shifts right at higher levels")

	// Raw CCDF points for re-plotting Fig. 1's log-log curves.
	plot := map[string]string{}
	emit := func(name string, w *Workload, maxDepth int) {
		perLevel := levelSeries(w, maxDepth)
		var b strings.Builder
		b.WriteString("level,x,p\n")
		for depth := 1; depth <= maxDepth; depth++ {
			for _, pt := range evalx.CCDF(perLevel[depth]) {
				fmt.Fprintf(&b, "%d,%g,%g\n", depth, pt.X, pt.P)
			}
		}
		plot["fig1_"+name] = b.String()
	}
	emit("ccd_trouble", wT, 4)
	emit("ccd_netpath", wN, 4)
	emit("scd", wS, 3)
	return &Result{ID: "fig1", Text: t.Render(), Values: vals, PlotData: plot}, nil
}

// levelSeries builds, for every hierarchy level, the flattened
// collection of per-node per-timeunit counts.
func levelSeries(w *Workload, maxDepth int) map[int][]float64 {
	perLevel := make(map[int][]float64, maxDepth)
	var agg []float64
	for _, u := range w.Units {
		agg = shhh.AggregateInto(w.Tree, u.IDs(), u.Values(), agg)
		for depth := 1; depth <= maxDepth; depth++ {
			for _, id := range w.Tree.Level(depth) {
				perLevel[depth] = append(perLevel[depth], agg[id])
			}
		}
	}
	return perLevel
}

func ccdfAt(pts []evalx.CCDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range pts {
		if pt.X >= x {
			p = pt.P
			break
		}
	}
	return p
}

// Fig2 reproduces Fig. 2: the normalized total-count time series over
// eight days at 15-minute precision, reporting the diurnal peak/trough
// structure and the weekend dip.
func Fig2(p Profile) (*Result, error) {
	prof := p
	prof.WindowLen = 8 * int(24*time.Hour/p.Delta) // 8 days
	prof.RunUnits = 0
	w, err := CCDNetWorkload(prof, nil)
	if err != nil {
		return nil, err
	}
	totals := make([]float64, len(w.Units))
	maxV := 0.0
	for i, u := range w.Units {
		totals[i] = u.Total()
		if totals[i] > maxV {
			maxV = totals[i]
		}
	}
	unitsPerDay := int(24 * time.Hour / p.Delta)
	t := &table{
		title:  "Fig. 2 — normalized daily profile (8 days, Δ=" + p.Delta.String() + ")",
		header: []string{"Day", "Weekday", "PeakHour", "Peak", "TroughHour", "Trough"},
	}
	vals := map[string]float64{}
	day0 := w.Start
	var weekdayPeakSum, weekendPeakSum float64
	var weekdayDays, weekendDays int
	for d := 0; d*unitsPerDay < len(totals); d++ {
		lo := d * unitsPerDay
		hi := min(lo+unitsPerDay, len(totals))
		peakI, troughI := lo, lo
		for i := lo; i < hi; i++ {
			if totals[i] > totals[peakI] {
				peakI = i
			}
			if totals[i] < totals[troughI] {
				troughI = i
			}
		}
		date := day0.Add(time.Duration(lo) * p.Delta)
		peakHour := float64((peakI-lo)*int(p.Delta.Minutes())) / 60
		troughHour := float64((troughI-lo)*int(p.Delta.Minutes())) / 60
		t.addRow(
			date.Format("01/02"), date.Weekday().String()[:3],
			f2(peakHour), f2(totals[peakI]/maxV),
			f2(troughHour), f2(totals[troughI]/maxV),
		)
		switch date.Weekday() {
		case time.Saturday, time.Sunday:
			weekendPeakSum += totals[peakI]
			weekendDays++
		default:
			weekdayPeakSum += totals[peakI]
			weekdayDays++
		}
		if d == 0 {
			vals["peakHour"] = peakHour
			vals["troughHour"] = troughHour
		}
	}
	if weekdayDays > 0 && weekendDays > 0 {
		ratio := (weekendPeakSum / float64(weekendDays)) / (weekdayPeakSum / float64(weekdayDays))
		t.addNote("weekend/weekday peak ratio = %.2f (paper: visible weekend dip in CCD)", ratio)
		vals["weekendRatio"] = ratio
	}
	t.addNote("paper: daily peaks ≈ 4 PM, minima ≈ 4 AM")
	var b strings.Builder
	b.WriteString("unit,normalized_count\n")
	for i, v := range totals {
		fmt.Fprintf(&b, "%d,%g\n", i, v/math.Max(maxV, 1))
	}
	return &Result{ID: "fig2", Text: t.Render(), Values: vals,
		PlotData: map[string]string{"fig2_series": b.String()}}, nil
}

// Fig9 reproduces Fig. 9: the relative forecast error after a split
// biases an EWMA forecast by ξ ∈ {2F, F, 0.5F}, over iterations
// k = 1..10 with α = 0.5 and T[i] = 1 (so F = 1).
func Fig9(Profile) (*Result, error) {
	series := make([]float64, 10)
	for i := range series {
		series[i] = 1
	}
	const alpha = 0.5
	curves := map[string][]float64{
		"xi=2F":   forecast.SplitErrorCurve(alpha, 2.0, series),
		"xi=F":    forecast.SplitErrorCurve(alpha, 1.0, series),
		"xi=0.5F": forecast.SplitErrorCurve(alpha, 0.5, series),
	}
	t := &table{
		title:  "Fig. 9 — relative error RE[t+k] after a biased split (α=0.5, T[i]=1)",
		header: []string{"k", "xi=2F", "xi=F", "xi=0.5F"},
	}
	vals := map[string]float64{}
	for k := 0; k < 10; k++ {
		t.addRow(fmt.Sprintf("%d", k+1), f3(curves["xi=2F"][k]), f3(curves["xi=F"][k]), f3(curves["xi=0.5F"][k]))
	}
	vals["decayRatio"] = curves["xi=F"][5] / curves["xi=F"][4]
	vals["k1:xi=F"] = curves["xi=F"][0]
	vals["k10:xi=F"] = curves["xi=F"][9]
	t.addNote("paper: error decays exponentially (rate 1-α) and scales with the bias ξ")
	var b strings.Builder
	b.WriteString("k,xi2F,xiF,xi05F\n")
	for k := 0; k < 10; k++ {
		fmt.Fprintf(&b, "%d,%g,%g,%g\n", k+1, curves["xi=2F"][k], curves["xi=F"][k], curves["xi=0.5F"][k])
	}
	return &Result{ID: "fig9", Text: t.Render(), Values: vals,
		PlotData: map[string]string{"fig9_curves": b.String()}}, nil
}

// Fig11 reproduces Fig. 11: FFT periodograms of the CCD and SCD
// aggregate series — the daily (24 h) peak in both, the weekly
// (~168–170 h) peak in CCD only — cross-checked against the à-trous
// wavelet detail energies.
func Fig11(p Profile) (*Result, error) {
	prof := p
	prof.Delta = time.Hour
	prof.WindowLen = 12 * 7 * 24 // 12 weeks hourly, the paper's window
	prof.RunUnits = 0
	prof.BaseRate = p.BaseRate / 4

	t := &table{
		title:  "Fig. 11 — FFT periodogram peaks (hourly series, 12 weeks)",
		header: []string{"Dataset", "Rank", "Period (h)", "Magnitude"},
	}
	vals := map[string]float64{}
	plot := map[string]string{}
	analyze := func(name string, w *Workload) {
		totals := make([]float64, len(w.Units))
		for i, u := range w.Units {
			totals[i] = u.Total()
		}
		var b strings.Builder
		b.WriteString("period_h,magnitude\n")
		for _, pt := range seasonal.Periodogram(totals, time.Hour) {
			fmt.Fprintf(&b, "%g,%g\n", pt.Period.Hours(), pt.Magnitude)
		}
		plot["fig11_"+name] = b.String()
		peaks := seasonal.DominantPeriods(totals, time.Hour, 0.15, 3)
		for i, pk := range peaks {
			t.addRow(name, fmt.Sprintf("%d", i+1), f2(pk.Period.Hours()), f3(pk.Magnitude))
			vals[fmt.Sprintf("%s:peak%d_h", name, i+1)] = pk.Period.Hours()
		}
		// Wavelet cross-check: detail energies across dyadic scales.
		wl := seasonal.Decompose(totals, 10)
		if j, ok := wl.DominantScale(); ok {
			t.addNote("%s wavelet dominant detail scale = 2^%d h", name, j+1)
			vals[name+":waveletScale"] = float64(j + 1)
		}
	}
	wC, err := CCDNetWorkload(prof, nil)
	if err != nil {
		return nil, err
	}
	analyze("CCD", wC)
	wS, err := SCDWorkload(prof)
	if err != nil {
		return nil, err
	}
	analyze("SCD", wS)
	t.addNote("paper: 24 h dominant in both; ~170 h (weekly) visible in CCD only; ξ = FFT_day/FFT_week ≈ 0.76")
	return &Result{ID: "fig11", Text: t.Render(), Values: vals, PlotData: plot}, nil
}

// Fig12 reproduces Fig. 12: the mean absolute error of ADA's series
// versus STA's exact reconstruction, (a) per timeunit age and (b) per
// hierarchy depth, across split rules and reference levels.
func Fig12(p Profile) (*Result, error) {
	w, _, err := table5Workload(p)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label string
		rule  algo.SplitRule
		h     int
	}
	variants := []variant{
		{label: "Long-Term-History h=0", rule: algo.LongTermHistory, h: 0},
		{label: "Long-Term-History h=1", rule: algo.LongTermHistory, h: 1},
		{label: "Long-Term-History h=2", rule: algo.LongTermHistory, h: 2},
		{label: "EWMA h=2", rule: algo.EWMARule, h: 2},
		{label: "Last-Time-Unit h=2", rule: algo.LastTimeUnit, h: 2},
		{label: "Uniform h=2", rule: algo.Uniform, h: 2},
	}
	t := &table{
		title:  "Fig. 12 — mean abs series error of ADA vs STA (by variant)",
		header: []string{"Variant", "MeanErr", "Newest5", "Oldest5", "ByDepth(1..4)"},
	}
	vals := map[string]float64{}
	sta, err := engineFor("STA", p, w, algo.LongTermHistory, 0)
	if err != nil {
		return nil, err
	}
	// Pre-drive STA and snapshot exact series at the final instance.
	var lastSTA *algo.StepState
	err = Replay(sta, w.Tree, w.Units, p.WindowLen, func(st *algo.StepState) error {
		lastSTA = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		ada, err := engineFor("ADA", p, w, v.rule, v.h)
		if err != nil {
			return nil, err
		}
		if err := Replay(ada, w.Tree, w.Units, p.WindowLen, nil); err != nil {
			return nil, err
		}
		var all, newest, oldest []float64
		depthErr := make(map[int][]float64)
		for _, hh := range lastSTA.HeavyHitters {
			// Replay numbers both engines' nodes as the collected
			// tree does.
			exact := sta.SeriesOf(hh.ID)
			approx := ada.SeriesOf(hh.ID)
			if len(exact) == 0 || len(approx) == 0 {
				continue
			}
			n := min(len(exact), len(approx))
			for i := 1; i <= n; i++ {
				e := math.Abs(exact[len(exact)-i] - approx[len(approx)-i])
				ref := math.Abs(exact[len(exact)-i])
				rel := e
				if ref > 0 {
					rel = e / max(ref, 1)
				}
				all = append(all, rel)
				if i <= 5 {
					newest = append(newest, rel)
				}
				if i > n-5 {
					oldest = append(oldest, rel)
				}
				depthErr[hh.Key.Depth()] = append(depthErr[hh.Key.Depth()], rel)
			}
		}
		depthStr := ""
		for d := 1; d <= 4; d++ {
			if d > 1 {
				depthStr += " "
			}
			depthStr += f3(mean(depthErr[d]))
		}
		t.addRow(v.label, f3(mean(all)), f3(mean(newest)), f3(mean(oldest)), depthStr)
		vals[v.label+":mean"] = mean(all)
	}
	t.addNote("paper: h=2 reaches ≈1%% error; Long-Term-History slightly best; error stable across timeunit age")
	return &Result{ID: "fig12", Text: t.Render(), Values: vals}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
