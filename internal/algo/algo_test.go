package algo

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"tiresias/internal/hierarchy"
	"tiresias/internal/shhh"
)

// key is a test helper building a Key from components.
func key(parts ...string) hierarchy.Key { return hierarchy.KeyOf(parts) }

// randomStream produces nUnits timeunits over a random 3-level
// universe, with bursty node popularity that shifts over time so heavy
// hitters move around the hierarchy (the regime ADA must survive).
func randomStream(rng *rand.Rand, nUnits int) []Timeunit {
	nTop := rng.Intn(3) + 2
	nMid := rng.Intn(3) + 2
	nLeaf := rng.Intn(3) + 2
	var leaves []hierarchy.Key
	for i := 0; i < nTop; i++ {
		for j := 0; j < nMid; j++ {
			for k := 0; k < nLeaf; k++ {
				leaves = append(leaves, key("t"+strconv.Itoa(i), "m"+strconv.Itoa(j), "l"+strconv.Itoa(k)))
			}
		}
	}
	units := make([]Timeunit, nUnits)
	hot := rng.Intn(len(leaves))
	for t := range units {
		u := Timeunit{}
		if rng.Intn(4) == 0 { // heavy hitters move
			hot = rng.Intn(len(leaves))
		}
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			u[leaves[rng.Intn(len(leaves))]]++
		}
		u[leaves[hot]] += float64(rng.Intn(15))
		units[t] = u
	}
	return units
}

func defaultCfg() Config {
	return Config{Theta: 6, WindowLen: 16}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero theta", cfg: Config{Theta: 0, WindowLen: 8}},
		{name: "short window", cfg: Config{Theta: 1, WindowLen: 1}},
		{name: "bad rule", cfg: Config{Theta: 1, WindowLen: 8, Rule: 99}},
		{name: "negative ref levels", cfg: Config{Theta: 1, WindowLen: 8, RefLevels: -1}},
		{name: "eta without lambda", cfg: Config{Theta: 1, WindowLen: 8, Eta: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewADA(tt.cfg); err == nil {
				t.Fatalf("NewADA(%+v) must fail", tt.cfg)
			}
			if _, err := NewSTA(tt.cfg); err == nil {
				t.Fatalf("NewSTA(%+v) must fail", tt.cfg)
			}
		})
	}
}

func TestEngineLifecycle(t *testing.T) {
	for _, mk := range []func(Config) (Engine, error){
		func(c Config) (Engine, error) { return NewADA(c) },
		func(c Config) (Engine, error) { return NewSTA(c) },
	} {
		e, err := mk(defaultCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := StepTimeunit(e, Timeunit{}); err == nil {
			t.Fatalf("%s: Step before Init must fail", e.Name())
		}
		if _, err := e.Init(nil); err != nil {
			t.Fatalf("%s: Init(nil): %v", e.Name(), err)
		}
		if _, err := e.Init(nil); err == nil {
			t.Fatalf("%s: second Init must fail", e.Name())
		}
		if _, err := StepTimeunit(e, Timeunit{}); err != nil {
			t.Fatalf("%s: Step after Init: %v", e.Name(), err)
		}
	}
}

func TestSplitRuleString(t *testing.T) {
	if Uniform.String() != "Uniform" || LastTimeUnit.String() != "Last-Time-Unit" ||
		LongTermHistory.String() != "Long-Term-History" || EWMARule.String() != "EWMA" {
		t.Fatal("SplitRule names wrong")
	}
	if SplitRule(42).String() != "SplitRule(42)" {
		t.Fatal("unknown rule String wrong")
	}
}

// hhKeys extracts the heavy-hitter key set from a StepState.
func hhKeys(st *StepState) map[hierarchy.Key]bool {
	out := make(map[hierarchy.Key]bool, len(st.HeavyHitters))
	for _, hh := range st.HeavyHitters {
		out[hh.Node.Key] = true
	}
	return out
}

// TestLemma1HeavyHitterSetsAgree is the paper's Lemma 1 as a property
// test: at every time instance, ADA's adapted SHHH set must equal the
// reference set computed from scratch (which is what STA reports).
func TestLemma1HeavyHitterSetsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := randomStream(rng, 24)
		cfg := Config{Theta: float64(rng.Intn(8) + 3), WindowLen: 8, Rule: SplitRule(rng.Intn(4) + 1)}
		ada, err := NewADA(cfg)
		if err != nil {
			return false
		}
		sta, err := NewSTA(cfg)
		if err != nil {
			return false
		}
		warm := 8
		stA, err := ada.Init(units[:warm])
		if err != nil {
			return false
		}
		stS, err := sta.Init(units[:warm])
		if err != nil {
			return false
		}
		if !sameKeys(hhKeys(stA), hhKeys(stS)) {
			return false
		}
		for _, u := range units[warm:] {
			stA, err = StepTimeunit(ada, u)
			if err != nil {
				return false
			}
			stS, err = StepTimeunit(sta, u)
			if err != nil {
				return false
			}
			if !sameKeys(hhKeys(stA), hhKeys(stS)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func sameKeys(a, b map[hierarchy.Key]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestNewestWeightsMatchDefinition: for both engines, the Actual value
// reported for every heavy hitter equals the Definition-2 modified
// weight of the newest timeunit.
func TestNewestWeightsMatchDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := randomStream(rng, 16)
		cfg := Config{Theta: 5, WindowLen: 8, Rule: SplitRule(rng.Intn(4) + 1)}
		engines := make([]Engine, 0, 2)
		if a, err := NewADA(cfg); err == nil {
			engines = append(engines, a)
		}
		if s, err := NewSTA(cfg); err == nil {
			engines = append(engines, s)
		}
		for _, e := range engines {
			if _, err := e.Init(units[:8]); err != nil {
				return false
			}
			for _, u := range units[8:] {
				st, err := StepTimeunit(e, u)
				if err != nil {
					return false
				}
				ref := shhh.Compute(e.Tree(), u, cfg.Theta)
				for _, hh := range st.HeavyHitters {
					if math.Abs(hh.Actual-ref.W[hh.Node.ID]) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestADASplitMovesSeriesDown drives a hand-built scenario: a parent
// is heavy for several instances, then one child becomes heavy. The
// child must inherit a scaled copy of the parent's history.
func TestADASplitMovesSeriesDown(t *testing.T) {
	cfg := Config{Theta: 5, WindowLen: 8, Rule: Uniform}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two children under p, each contributing 3 per unit: p
	// aggregates 6 >= θ, children stay light.
	warm := make([]Timeunit, 6)
	for i := range warm {
		warm[i] = Timeunit{key("p", "a"): 3, key("p", "b"): 3}
	}
	st, err := ada.Init(warm)
	if err != nil {
		t.Fatal(err)
	}
	keys := hhKeys(st)
	if !keys[key("p")] || keys[key("p", "a")] {
		t.Fatalf("warmup SHHH = %v, want {p}", keys)
	}
	// Child a spikes to 9: a becomes heavy, p drops to 3 < θ and its
	// residual merges into the root.
	st, err = StepTimeunit(ada, Timeunit{key("p", "a"): 9, key("p", "b"): 3})
	if err != nil {
		t.Fatal(err)
	}
	keys = hhKeys(st)
	if !keys[key("p", "a")] {
		t.Fatalf("after spike SHHH = %v, want p/a heavy", keys)
	}
	if keys[key("p")] {
		t.Fatalf("after spike SHHH = %v, p (W=3) must not be a member", keys)
	}
	nA := ada.Tree().Lookup(key("p", "a"))
	ts := ada.SeriesOf(nA)
	if len(ts) == 0 {
		t.Fatal("child a has no series")
	}
	// Uniform split over {a, b}: each inherits half of p's history
	// (6/2 = 3 per unit), and the newest value is the spike (9).
	if got := ts[len(ts)-1]; got != 9 {
		t.Fatalf("newest value = %v, want 9", got)
	}
	for i := 0; i < len(ts)-1; i++ {
		if math.Abs(ts[i]-3) > 1e-9 {
			t.Fatalf("inherited history[%d] = %v, want 3 (half of parent's 6)", i, ts[i])
		}
	}
}

// TestADAMergeFoldsSeriesUp: two heavy children go quiet; their series
// must merge into the parent, conserving history mass.
func TestADAMergeFoldsSeriesUp(t *testing.T) {
	cfg := Config{Theta: 5, WindowLen: 8, Rule: Uniform}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 6)
	for i := range warm {
		warm[i] = Timeunit{key("p", "a"): 6, key("p", "b"): 7}
	}
	st, err := ada.Init(warm)
	if err != nil {
		t.Fatal(err)
	}
	keys := hhKeys(st)
	if !keys[key("p", "a")] || !keys[key("p", "b")] {
		t.Fatalf("warmup SHHH = %v, want both children", keys)
	}
	// Both children drop to 3: p aggregates 6 >= θ.
	st, err = StepTimeunit(ada, Timeunit{key("p", "a"): 3, key("p", "b"): 3})
	if err != nil {
		t.Fatal(err)
	}
	keys = hhKeys(st)
	if !keys[key("p")] || keys[key("p", "a")] || keys[key("p", "b")] {
		t.Fatalf("after quiet SHHH = %v, want {p}", keys)
	}
	nP := ada.Tree().Lookup(key("p"))
	ts := ada.SeriesOf(nP)
	if len(ts) == 0 {
		t.Fatal("parent has no series after merge")
	}
	// History: a+b = 13 per unit; newest = 6.
	if got := ts[len(ts)-1]; got != 6 {
		t.Fatalf("newest = %v, want 6", got)
	}
	for i := 0; i < len(ts)-1; i++ {
		if math.Abs(ts[i]-13) > 1e-9 {
			t.Fatalf("merged history[%d] = %v, want 13", i, ts[i])
		}
	}
}

// TestADADeepSplitCascades: heaviness jumps from a grandparent
// directly to a grandchild; the split must cascade through the middle
// level even though the middle node itself is light.
func TestADADeepSplitCascades(t *testing.T) {
	cfg := Config{Theta: 5, WindowLen: 8, Rule: Uniform}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 6)
	for i := range warm {
		warm[i] = Timeunit{
			key("g", "c1", "x"): 2,
			key("g", "c1", "y"): 2,
			key("g", "c2", "z"): 2,
		}
	}
	st, err := ada.Init(warm)
	if err != nil {
		t.Fatal(err)
	}
	if keys := hhKeys(st); !keys[key("g")] {
		t.Fatalf("warmup SHHH = %v, want {g}", keys)
	}
	// Grandchild x spikes; c1's residual (2) and c2 (2) stay light.
	st, err = StepTimeunit(ada, Timeunit{
		key("g", "c1", "x"): 9,
		key("g", "c1", "y"): 2,
		key("g", "c2", "z"): 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := hhKeys(st)
	if !keys[key("g", "c1", "x")] {
		t.Fatalf("SHHH = %v, want grandchild x", keys)
	}
	if keys[key("g")] {
		t.Fatalf("SHHH = %v: g residual is 4+2 < θ... g must not be a member", keys)
	}
	nX := ada.Tree().Lookup(key("g", "c1", "x"))
	if ts := ada.SeriesOf(nX); len(ts) == 0 {
		t.Fatal("grandchild has no series after cascading split")
	}
}

// TestMassConservationAcrossAdaptation: at every instance, the sum of
// all series owners' newest values equals the timeunit's total count.
func TestMassConservationAcrossAdaptation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := randomStream(rng, 20)
		cfg := Config{Theta: 6, WindowLen: 8, Rule: SplitRule(rng.Intn(4) + 1)}
		ada, err := NewADA(cfg)
		if err != nil {
			return false
		}
		if _, err := ada.Init(units[:8]); err != nil {
			return false
		}
		for _, u := range units[8:] {
			st, err := StepTimeunit(ada, u)
			if err != nil {
				return false
			}
			var got float64
			for _, hh := range st.HeavyHitters {
				got += hh.Actual
			}
			root := ada.Tree().Root()
			if !hhKeys(st)[root.Key] {
				ts := ada.SeriesOf(root)
				if len(ts) > 0 {
					got += ts[len(ts)-1]
				}
			}
			if math.Abs(got-u.Total()) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestADASeriesCloseToSTA quantifies Fig. 12's claim on a controlled
// workload: ADA's adapted series stay within a few percent of STA's
// exact reconstruction.
func TestADASeriesCloseToSTA(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	units := make([]Timeunit, 40)
	// Stable background with one migrating hot leaf.
	leaves := []hierarchy.Key{
		key("v1", "a"), key("v1", "b"), key("v2", "a"), key("v2", "b"),
	}
	for t := range units {
		u := Timeunit{}
		for _, l := range leaves {
			u[l] = 2 + float64(rng.Intn(2))
		}
		u[leaves[(t/10)%len(leaves)]] += 8
		units[t] = u
	}
	cfg := Config{Theta: 6, WindowLen: 12, Rule: LongTermHistory}
	ada, _ := NewADA(cfg)
	sta, _ := NewSTA(cfg)
	if _, err := ada.Init(units[:12]); err != nil {
		t.Fatal(err)
	}
	if _, err := sta.Init(units[:12]); err != nil {
		t.Fatal(err)
	}
	var sumErr, sumRef float64
	for _, u := range units[12:] {
		stA, err := StepTimeunit(ada, u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := StepTimeunit(sta, u); err != nil {
			t.Fatal(err)
		}
		for _, hh := range stA.HeavyHitters {
			exact := sta.SeriesOf(sta.Tree().Lookup(hh.Node.Key))
			approx := ada.SeriesOf(hh.Node)
			if exact == nil || approx == nil {
				continue
			}
			n := min(len(exact), len(approx))
			for i := 1; i <= n; i++ {
				sumErr += math.Abs(exact[len(exact)-i] - approx[len(approx)-i])
				sumRef += math.Abs(exact[len(exact)-i])
			}
		}
	}
	if sumRef == 0 {
		t.Fatal("no overlapping series compared")
	}
	rel := sumErr / sumRef
	if rel > 0.25 {
		t.Fatalf("mean relative series error vs STA = %v, want <= 0.25", rel)
	}
}

// TestReferenceSeriesReduceSplitError compares ADA with h=0 and h=2 on
// a workload engineered to make splits biased: the reference-equipped
// run must be at least as accurate (§V-B5, Fig. 12).
func TestReferenceSeriesReduceSplitError(t *testing.T) {
	mkUnits := func() []Timeunit {
		rng := rand.New(rand.NewSource(5))
		units := make([]Timeunit, 36)
		for t := range units {
			u := Timeunit{}
			// Asymmetric children whose shares differ wildly from
			// what any split rule would guess right after a regime
			// change.
			if t < 18 {
				u[key("v", "a")] = 1
				u[key("v", "b")] = 7
			} else {
				u[key("v", "a")] = 9
				u[key("v", "b")] = 1
			}
			u[key("w")] = float64(rng.Intn(2))
			units[t] = u
		}
		return units
	}
	run := func(h int) float64 {
		units := mkUnits()
		cfg := Config{Theta: 6, WindowLen: 12, Rule: Uniform, RefLevels: h}
		ada, err := NewADA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sta, err := NewSTA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ada.Init(units[:12]); err != nil {
			t.Fatal(err)
		}
		if _, err := sta.Init(units[:12]); err != nil {
			t.Fatal(err)
		}
		var sumErr float64
		for _, u := range units[12:] {
			stA, err := StepTimeunit(ada, u)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := StepTimeunit(sta, u); err != nil {
				t.Fatal(err)
			}
			for _, hh := range stA.HeavyHitters {
				exact := sta.SeriesOf(sta.Tree().Lookup(hh.Node.Key))
				approx := ada.SeriesOf(hh.Node)
				n := min(len(exact), len(approx))
				for i := 1; i <= n; i++ {
					sumErr += math.Abs(exact[len(exact)-i] - approx[len(approx)-i])
				}
			}
		}
		return sumErr
	}
	errNoRef := run(0)
	errRef := run(2)
	if errRef > errNoRef+1e-9 {
		t.Fatalf("reference series made things worse: h=2 err %v > h=0 err %v", errRef, errNoRef)
	}
}

func TestMemoryStatsADALessThanSTA(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	units := randomStream(rng, 40)
	cfg := Config{Theta: 6, WindowLen: 24}
	ada, _ := NewADA(cfg)
	sta, _ := NewSTA(cfg)
	if _, err := ada.Init(units[:24]); err != nil {
		t.Fatal(err)
	}
	if _, err := sta.Init(units[:24]); err != nil {
		t.Fatal(err)
	}
	for _, u := range units[24:] {
		if _, err := StepTimeunit(ada, u); err != nil {
			t.Fatal(err)
		}
		if _, err := StepTimeunit(sta, u); err != nil {
			t.Fatal(err)
		}
	}
	mA, mS := ada.Memory(), sta.Memory()
	if mA.TotalFloats() <= 0 || mS.TotalFloats() <= 0 {
		t.Fatal("memory stats must be positive")
	}
	if mA.Normalized() >= mS.Normalized() {
		t.Fatalf("ADA normalized memory (%v) must undercut STA (%v)", mA.Normalized(), mS.Normalized())
	}
}

func TestStageTimingsAccumulate(t *testing.T) {
	var total StageTimings
	total.Add(StageTimings{UpdatingHierarchies: 1, CreatingTimeSeries: 2, DetectingAnomalies: 3})
	total.Add(StageTimings{UpdatingHierarchies: 10, CreatingTimeSeries: 20, DetectingAnomalies: 30})
	if total.Total() != 66 {
		t.Fatalf("Total = %v, want 66", total.Total())
	}
}

func TestADAMultiScaleTracking(t *testing.T) {
	cfg := Config{Theta: 3, WindowLen: 16, Lambda: 2, Eta: 2}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 8)
	for i := range warm {
		warm[i] = Timeunit{key("a"): 4}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := StepTimeunit(ada, Timeunit{key("a"): 4}); err != nil {
			t.Fatal(err)
		}
	}
	n := ada.Tree().Lookup(key("a"))
	coarse := ada.MultiScaleOf(n, 1)
	if len(coarse) == 0 {
		t.Fatal("no coarse-scale series")
	}
	for _, v := range coarse {
		if v != 8 { // λ=2 buckets of 4
			t.Fatalf("coarse series = %v, want all 8", coarse)
		}
	}
	if got := ada.MultiScaleOf(n, 5); got != nil {
		t.Fatal("out-of-range scale must be nil")
	}
}

func TestSeriesOfUnknownNode(t *testing.T) {
	cfg := defaultCfg()
	ada, _ := NewADA(cfg)
	if _, err := ada.Init([]Timeunit{{key("a"): 10}}); err != nil {
		t.Fatal(err)
	}
	other := hierarchy.New().Insert([]string{"zzz"})
	if ada.SeriesOf(other) == nil {
		// Node IDs from a foreign tree may accidentally collide;
		// the contract is only "no panic". Nothing to assert.
		return
	}
}

func TestHeavyHitterNodesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	units := randomStream(rng, 12)
	ada, _ := NewADA(Config{Theta: 4, WindowLen: 8})
	if _, err := ada.Init(units[:8]); err != nil {
		t.Fatal(err)
	}
	for _, u := range units[8:] {
		if _, err := StepTimeunit(ada, u); err != nil {
			t.Fatal(err)
		}
	}
	hhs := ada.HeavyHitterNodes()
	for i := 1; i < len(hhs); i++ {
		if hhs[i].ID <= hhs[i-1].ID {
			t.Fatal("HeavyHitterNodes not ordered by ID")
		}
	}
}
