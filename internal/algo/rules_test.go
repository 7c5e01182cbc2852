package algo

import (
	"math"
	"testing"
)

// ruleScenario drives a parent to heavy-hitter status with two
// children of asymmetric history (a carried 3x b's traffic before the
// regime change), then makes one child heavy so a split occurs, and
// returns both children's inherited history values.
func ruleScenario(t *testing.T, rule SplitRule, alpha float64) (aHist, bHist float64) {
	t.Helper()
	cfg := Config{Theta: 7, WindowLen: 8, Rule: rule, RuleAlpha: alpha}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 8)
	for i := range warm {
		warm[i] = Timeunit{key("p", "a"): 4.5, key("p", "b"): 1.5} // parent W = 6 < θ... adjust
	}
	// Parent must be the heavy hitter during warmup: total 6 < 7, so
	// bump to keep the parent heavy.
	for i := range warm {
		warm[i] = Timeunit{key("p", "a"): 6, key("p", "b"): 2}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	// Child a becomes heavy; b stays light. The split distributes
	// the parent's history (8 per unit) by the rule's ratios.
	if _, err := StepTimeunit(ada, Timeunit{key("p", "a"): 9, key("p", "b"): 2}); err != nil {
		t.Fatal(err)
	}
	nA := ada.Tree().Lookup(key("p", "a"))
	nB := ada.Tree().Lookup(key("p", "b"))
	tsA := ada.SeriesOf(nA)
	if len(tsA) < 2 {
		t.Fatalf("child a has no inherited history: %v", tsA)
	}
	aHist = tsA[0]
	// b is light, so its share merges upward — through p (also light
	// after the split) to the root's residual series. Take the first
	// holder that still has history.
	if tsB := ada.SeriesOf(nB); len(tsB) >= 2 {
		bHist = tsB[0]
	} else if tsP := ada.SeriesOf(ada.Tree().Lookup(key("p"))); len(tsP) >= 2 {
		bHist = tsP[0]
	} else if tsR := ada.SeriesOf(ada.Tree().Root()); len(tsR) >= 2 {
		bHist = tsR[0]
	}
	return aHist, bHist
}

func TestUniformRuleSplitsEqually(t *testing.T) {
	a, b := ruleScenario(t, Uniform, 0)
	if math.Abs(a-4) > 1e-9 || math.Abs(b-4) > 1e-9 {
		t.Fatalf("uniform shares = %v, %v; want 4, 4 (half of 8 each)", a, b)
	}
}

func TestHistoryRulesFollowTrafficShares(t *testing.T) {
	// a carried 6 of 8 per unit (75%), so history-aware rules must
	// hand it ≈ 6 of the 8-per-unit parent history.
	for _, rule := range []SplitRule{LastTimeUnit, LongTermHistory, EWMARule} {
		a, b := ruleScenario(t, rule, 0.4)
		if math.Abs(a-6) > 1e-6 || math.Abs(b-2) > 1e-6 {
			t.Fatalf("%s shares = %v, %v; want 6, 2", rule, a, b)
		}
	}
}

// TestRuleXValues checks the X statistics directly.
func TestRuleXValues(t *testing.T) {
	cfg := Config{Theta: 100, WindowLen: 4, Rule: EWMARule, RuleAlpha: 0.5}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Init([]Timeunit{{key("n"): 8}}); err != nil {
		t.Fatal(err)
	}
	id := ada.Tree().Lookup(key("n")).ID
	if ada.prevA[id] != 8 {
		t.Fatalf("prevA = %v, want 8", ada.prevA[id])
	}
	if _, err := StepTimeunit(ada, Timeunit{key("n"): 4}); err != nil {
		t.Fatal(err)
	}
	if ada.prevA[id] != 4 {
		t.Fatalf("prevA = %v, want 4", ada.prevA[id])
	}
	if ada.cumA[id] != 12 {
		t.Fatalf("cumA = %v, want 12", ada.cumA[id])
	}
	// EWMA after seeing 8 then 4 with α=0.5: 0.5*4 + 0.5*(0.5*8) = 4.
	if math.Abs(ada.ewmaA[id]-4) > 1e-9 {
		t.Fatalf("ewmaA = %v, want 4", ada.ewmaA[id])
	}
	// ruleX dispatch.
	ada.cfg.Rule = Uniform
	if ada.ruleX(id) != 1 {
		t.Fatal("Uniform X must be 1")
	}
	ada.cfg.Rule = LastTimeUnit
	if ada.ruleX(id) != 4 {
		t.Fatal("LastTimeUnit X wrong")
	}
	ada.cfg.Rule = LongTermHistory
	if ada.ruleX(id) != 12 {
		t.Fatal("LongTermHistory X wrong")
	}
	ada.cfg.Rule = EWMARule
	if math.Abs(ada.ruleX(id)-4) > 1e-9 {
		t.Fatal("EWMARule X wrong")
	}
}

// TestReferenceRepairExactness: with reference series on the split
// level and no heavy descendants below the split children, the
// repaired series must equal the exact (STA) series exactly — the
// strongest form of the §V-B5 guarantee.
func TestReferenceRepairExactness(t *testing.T) {
	cfg := Config{Theta: 7, WindowLen: 8, Rule: Uniform, RefLevels: 2}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sta, err := NewSTA(Config{Theta: 7, WindowLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Asymmetric children so the Uniform split is maximally wrong.
	warm := make([]Timeunit, 8)
	for i := range warm {
		warm[i] = Timeunit{key("p", "a"): 6, key("p", "b"): 2}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := sta.Init(warm); err != nil {
		t.Fatal(err)
	}
	step := Timeunit{key("p", "a"): 9, key("p", "b"): 2}
	if _, err := StepTimeunit(ada, step); err != nil {
		t.Fatal(err)
	}
	if _, err := StepTimeunit(sta, step); err != nil {
		t.Fatal(err)
	}
	nA := ada.Tree().Lookup(key("p", "a"))
	got := ada.SeriesOf(nA)
	want := sta.SeriesOf(sta.Tree().Lookup(key("p", "a")))
	if len(got) == 0 || len(want) == 0 {
		t.Fatalf("missing series: got %d, want %d", len(got), len(want))
	}
	n := min(len(got), len(want))
	for i := 1; i <= n; i++ {
		g, w := got[len(got)-i], want[len(want)-i]
		if math.Abs(g-w) > 1e-9 {
			t.Fatalf("repaired series differs %d from end: %v vs %v\n(got %v want %v)", i, g, w, got, want)
		}
	}
}
