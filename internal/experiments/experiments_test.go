package experiments

import (
	"strings"
	"testing"

	"tiresias/internal/checkpoint"
	"tiresias/internal/forecast"
)

// tiny returns a profile small enough that every experiment finishes
// in well under a second, while keeping the qualitative shapes.
func tiny() Profile {
	cfg := checkpoint.DefaultConfig()
	cfg.WindowLen, cfg.Theta, cfg.Thresholds.DT = 48, 6, 6
	cfg.AutoSeason, cfg.HWAlpha = false, 0.5
	return Profile{Config: cfg, Name: "tiny", NetScale: 0.05, RunUnits: 24, BaseRate: 60, Seed: 3}
}

func TestProfiles(t *testing.T) {
	if Quick().Name != "quick" || Full().Name != "full" {
		t.Fatal("profile names wrong")
	}
	if Full().WindowLen <= Quick().WindowLen {
		t.Fatal("Full must be larger than Quick")
	}
}

// TestProfilesPinForecaster pins the forecaster each profile's engines
// run: Full a one-day Holt-Winters season, Quick (whose ℓ holds no two
// days) EWMA(0.5). No golden covers Full's tables.
func TestProfilesPinForecaster(t *testing.T) {
	history := make([]float64, 2*96)
	for i := range history {
		history[i] = float64(10 + i%96)
	}
	built := func(p Profile) forecast.Linear {
		ec := p.Engine(p.Seasonality(nil))
		return ec.NewForecaster(nil, history)
	}
	if hw, ok := built(Full()).(*forecast.HoltWinters); !ok || hw.Period() != 96 {
		t.Fatalf("Full forecaster = %#v, want a period-96 *forecast.HoltWinters", built(Full()))
	}
	if e, ok := built(Quick()).(*forecast.EWMA); !ok || e.Alpha != 0.5 {
		t.Fatalf("Quick forecaster = %#v, want *forecast.EWMA with alpha 0.5", built(Quick()))
	}
}

func TestTable1SharesMatchPaper(t *testing.T) {
	r, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "TV") {
		t.Fatalf("missing TV row:\n%s", r.Text)
	}
	tv := r.Values["share:TV"]
	if tv < 0.30 || tv > 0.50 {
		t.Fatalf("TV share = %v, want ≈ 0.396", tv)
	}
	// TV must dominate, as in Table I.
	for k, v := range r.Values {
		if strings.HasPrefix(k, "share:") && k != "share:TV" && v > tv {
			t.Fatalf("%s share %v exceeds TV %v", k, v, tv)
		}
	}
}

func TestTable2DegreesMatchPaper(t *testing.T) {
	r, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["Trouble descr.:k1"] != 9 || r.Values["Trouble descr.:k2"] != 6 {
		t.Fatalf("trouble degrees wrong: %v", r.Values)
	}
	if !strings.Contains(r.Text, "N/A") {
		t.Fatal("SCD k=4 must be N/A")
	}
}

func TestFig1DeepLevelsSparser(t *testing.T) {
	r, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Zero fraction must not decrease with depth for the network
	// hierarchies (deeper = sparser), the paper's core observation.
	z1 := r.Values["CCD-netpath:L1:zeroFrac"]
	z4 := r.Values["CCD-netpath:L4:zeroFrac"]
	if z4 < z1 {
		t.Fatalf("depth 4 zero fraction (%v) must be >= depth 1 (%v)", z4, z1)
	}
	if z4 < 0.5 {
		t.Fatalf("deep level should be sparse, zeroFrac = %v", z4)
	}
}

func TestFig2DiurnalShape(t *testing.T) {
	r, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Peak in the afternoon, trough in the early morning.
	if r.Values["peakHour"] < 11 || r.Values["peakHour"] > 21 {
		t.Fatalf("peak hour = %v, want ≈ 16", r.Values["peakHour"])
	}
	if r.Values["troughHour"] > 9 {
		t.Fatalf("trough hour = %v, want ≈ 4", r.Values["troughHour"])
	}
	if ratio, ok := r.Values["weekendRatio"]; ok && ratio >= 1 {
		t.Fatalf("weekend ratio = %v, want < 1", ratio)
	}
}

func TestFig9ErrorDecay(t *testing.T) {
	r, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["k10:xi=F"] >= r.Values["k1:xi=F"] {
		t.Fatal("error must decay over iterations")
	}
	// Decay rate ≈ 1-α = 0.5.
	if d := r.Values["decayRatio"]; d < 0.4 || d > 0.6 {
		t.Fatalf("decay ratio = %v, want ≈ 0.5", d)
	}
}

func TestFig11FindsDailyPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("12-week series generation")
	}
	p := tiny()
	p.BaseRate = 240
	r, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	ccd1 := r.Values["CCD:peak1_h"]
	if ccd1 < 20 || ccd1 > 28 {
		t.Fatalf("CCD dominant period = %v h, want ≈ 24", ccd1)
	}
	scd1 := r.Values["SCD:peak1_h"]
	if scd1 < 20 || scd1 > 28 {
		t.Fatalf("SCD dominant period = %v h, want ≈ 24", scd1)
	}
	// CCD must additionally show a weekly-range peak.
	weekly := false
	for _, k := range []string{"CCD:peak2_h", "CCD:peak3_h"} {
		if h, ok := r.Values[k]; ok && h > 140 && h < 200 {
			weekly = true
		}
	}
	if !weekly {
		t.Fatalf("CCD weekly peak missing: %v", r.Values)
	}
}

func TestFig12ReferenceLevelsHelp(t *testing.T) {
	r, err := Fig12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	h0 := r.Values["Long-Term-History h=0:mean"]
	h2 := r.Values["Long-Term-History h=2:mean"]
	if h2 > h0+1e-9 {
		t.Fatalf("h=2 error (%v) must not exceed h=0 (%v)", h2, h0)
	}
}

func TestTable3ADAFasterThanSTA(t *testing.T) {
	r, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	speedup := r.Values["15m0s:speedup"]
	if speedup <= 1 {
		t.Fatalf("ADA speedup = %v, must exceed 1", speedup)
	}
	// STA's Creating Time Series must dominate ADA's.
	staTS := r.Values["15m0s:STA:createTS_ms"]
	adaTS := r.Values["15m0s:ADA:createTS_ms"]
	if staTS <= adaTS {
		t.Fatalf("STA CreateTS (%v ms) must exceed ADA's (%v ms)", staTS, adaTS)
	}
}

func TestTable4ADAUsesLessMemory(t *testing.T) {
	r, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["ADA:h0:frac"] >= 1 {
		t.Fatalf("ADA h=0 memory fraction = %v, must be < 1", r.Values["ADA:h0:frac"])
	}
	// Memory grows with h.
	if r.Values["ADA:h2"] < r.Values["ADA:h0"] {
		t.Fatalf("memory must grow with h: %v", r.Values)
	}
}

func TestTable5HighAgreement(t *testing.T) {
	r, err := Table5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	acc := r.Values["Long-Term-History:h2:accuracy"]
	if acc < 0.9 {
		t.Fatalf("ADA/STA agreement accuracy = %v, want >= 0.9", acc)
	}
}

func TestTable6FindsReferenceAnomalies(t *testing.T) {
	r, err := Table6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["type1"] < 0.5 {
		t.Fatalf("Type1 = %v, want >= 0.5", r.Values["type1"])
	}
	if !strings.Contains(r.Text, "Type 2") {
		t.Fatalf("rendering missing Type 2:\n%s", r.Text)
	}
}

// TestTablesScreenWithProfileThresholds: Tables V and VI screen with the
// profile's thresholds, so a DT no difference reaches flags nothing.
func TestTablesScreenWithProfileThresholds(t *testing.T) {
	p := tiny()
	p.Thresholds.DT = 1e9
	r5, err := Table5(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range r5.Values {
		if strings.HasSuffix(name, ":precision") || strings.HasSuffix(name, ":recall") {
			if v != 0 {
				t.Errorf("Table V %s = %v with DT = 1e9, want 0 (nothing flagged)", name, v)
			}
		}
	}
	r6, err := Table6(p)
	if err != nil {
		t.Fatal(err)
	}
	if ta, na := r6.Values["TA"], r6.Values["NA"]; ta != 0 || na != 0 {
		t.Errorf("Table VI TA, NA = %v, %v with DT = 1e9, want 0, 0 (nothing flagged)", ta, na)
	}
}

func TestSensitivityMonotone(t *testing.T) {
	r, err := Sensitivity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Tighter thresholds cannot produce more alarms.
	loose := r.Values["rt1.5:dt2:alarms"]
	tight := r.Values["rt5.0:dt32:alarms"]
	if tight > loose {
		t.Fatalf("tight thresholds (%v alarms) exceed loose (%v)", tight, loose)
	}
}

// TestSensitivityPaperCellPinned pins the Quick profile's RT=2.8/DT=8
// cell, the paper's operating point: 5 of 9 injected (node, instance)
// events found among 17 alarms. A change to the detector or to the
// evalx matcher the sweep scores with shows up here.
func TestSensitivityPaperCellPinned(t *testing.T) {
	r, err := Sensitivity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Values["rt2.8:dt8:recall"]; got != 5.0/9 {
		t.Errorf("rt2.8:dt8:recall = %v, want %v", got, 5.0/9)
	}
	if got := r.Values["rt2.8:dt8:alarms"]; got != 17 {
		t.Errorf("rt2.8:dt8:alarms = %v, want 17", got)
	}
}

func TestAblateSeasonHWBeatsEWMA(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-week generation")
	}
	p := tiny()
	p.BaseRate = 240
	r, err := AblateSeason(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["hw"] >= r.Values["ewma"] {
		t.Fatalf("Holt-Winters MAE (%v) must beat EWMA (%v)", r.Values["hw"], r.Values["ewma"])
	}
	if r.Values["dual"] > r.Values["hw"]*1.2 {
		t.Fatalf("dual-season MAE (%v) should be competitive with single (%v)", r.Values["dual"], r.Values["hw"])
	}
}

func TestAblateScales(t *testing.T) {
	r, err := AblateScales(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["multiFloats"] <= r.Values["baseFloats"] {
		t.Fatal("multi-scale must hold more series floats")
	}
	if r.Values["consistent"] != 1 {
		t.Fatal("coarse scales inconsistent with base scale")
	}
}

func TestAblateHHDBlindSpot(t *testing.T) {
	r, err := AblateHHD(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["hhdSees"] != 0 {
		t.Fatal("long-term HHD must not localize the short spike at a cold node")
	}
	if r.Values["tiresiasSees"] != 1 {
		t.Fatal("Tiresias must localize the short spike")
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, err := ByID("nope", tiny()); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("IDs() = %d entries, want 15", len(ids))
	}
	r, err := ByID("fig9", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig9" {
		t.Fatalf("ID = %s", r.ID)
	}
}

func TestTableRender(t *testing.T) {
	tb := &table{title: "T", header: []string{"A", "LongHeader"}}
	tb.addRow("x", "y")
	tb.addNote("n=%d", 1)
	out := tb.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "note: n=1") {
		t.Fatalf("render:\n%s", out)
	}
}
