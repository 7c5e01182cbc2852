package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

func start() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) } // a Monday

func smallConfig() Config {
	return Config{
		Shape:           Shape{Degrees: []int{3, 2}, LevelPrefix: []string{"a", "b"}},
		Start:           start(),
		Units:           96,
		Delta:           15 * time.Minute,
		BaseRate:        20,
		DiurnalStrength: 0.6,
		WeeklyStrength:  0.4,
		ZipfS:           1,
		Seed:            1,
	}
}

func TestShapeLeaves(t *testing.T) {
	s := Shape{Degrees: []int{2, 3}, LevelPrefix: []string{"x", "y"}}
	leaves := s.Leaves()
	if len(leaves) != 6 || s.NumLeaves() != 6 {
		t.Fatalf("leaves = %d, want 6", len(leaves))
	}
	if leaves[0][0] != "x0" || leaves[0][1] != "y0" {
		t.Fatalf("first leaf = %v", leaves[0])
	}
	if leaves[5][0] != "x1" || leaves[5][1] != "y2" {
		t.Fatalf("last leaf = %v", leaves[5])
	}
}

func TestPaperShapes(t *testing.T) {
	tests := []struct {
		name  string
		shape Shape
		want  []int
	}{
		{name: "ccd trouble", shape: CCDTroubleShape(), want: []int{9, 6, 3, 5}},
		{name: "ccd network", shape: CCDNetworkShape(1), want: []int{61, 5, 6, 24}},
		{name: "scd network", shape: SCDNetworkShape(1), want: []int{2000, 30, 6}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if len(tt.shape.Degrees) != len(tt.want) {
				t.Fatalf("degrees = %v, want %v", tt.shape.Degrees, tt.want)
			}
			for i := range tt.want {
				if tt.shape.Degrees[i] != tt.want[i] {
					t.Fatalf("degrees = %v, want %v", tt.shape.Degrees, tt.want)
				}
			}
		})
	}
	// Scaled variants stay valid.
	if d := SCDNetworkShape(0.1).Degrees[0]; d != 200 {
		t.Fatalf("scaled SCD top degree = %d, want 200", d)
	}
	if d := CCDNetworkShape(-1).Degrees[0]; d != 61 {
		t.Fatalf("invalid scale must fall back to full size, got %d", d)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "empty shape", mutate: func(c *Config) { c.Shape.Degrees = nil }},
		{name: "zero degree", mutate: func(c *Config) { c.Shape.Degrees = []int{0} }},
		{name: "zero units", mutate: func(c *Config) { c.Units = 0 }},
		{name: "zero delta", mutate: func(c *Config) { c.Delta = 0 }},
		{name: "negative rate", mutate: func(c *Config) { c.BaseRate = -1 }},
		{name: "diurnal too big", mutate: func(c *Config) { c.DiurnalStrength = 1 }},
		{name: "weekly negative", mutate: func(c *Config) { c.WeeklyStrength = -0.1 }},
		{name: "anomaly span", mutate: func(c *Config) {
			c.Anomalies = []AnomalySpec{{Path: []string{"a0"}, StartUnit: 5, EndUnit: 5, ExtraPerUnit: 1}}
		}},
		{name: "anomaly rate", mutate: func(c *Config) {
			c.Anomalies = []AnomalySpec{{Path: []string{"a0"}, StartUnit: 0, EndUnit: 1, ExtraPerUnit: 0}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Fatal("Generate must fail")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Records) != len(d2.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(d1.Records), len(d2.Records))
	}
	for i := range d1.Records {
		if d1.Records[i].Key() != d2.Records[i].Key() || !d1.Records[i].Time.Equal(d2.Records[i].Time) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateRecordsSortedAndInRange(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) == 0 {
		t.Fatal("no records generated")
	}
	end := cfg.Start.Add(time.Duration(cfg.Units) * cfg.Delta)
	for i, r := range d.Records {
		if r.Time.Before(cfg.Start) || !r.Time.Before(end) {
			t.Fatalf("record %d time %v outside [%v,%v)", i, r.Time, cfg.Start, end)
		}
		if i > 0 && r.Time.Before(d.Records[i-1].Time) {
			t.Fatalf("records not sorted at %d", i)
		}
		if len(r.Path) != len(cfg.Shape.Degrees) {
			t.Fatalf("record %d path depth %d, want %d", i, len(r.Path), len(cfg.Shape.Degrees))
		}
	}
}

func TestProfileShape(t *testing.T) {
	// Peak at 16:00 beats trough at 04:00.
	peak := Profile(time.Date(2010, 5, 3, 16, 0, 0, 0, time.UTC), 0.6, 0.4)
	trough := Profile(time.Date(2010, 5, 3, 4, 0, 0, 0, time.UTC), 0.6, 0.4)
	if peak <= trough {
		t.Fatalf("peak %v must exceed trough %v", peak, trough)
	}
	// Weekend suppressed vs same hour on a weekday.
	monday := Profile(time.Date(2010, 5, 3, 12, 0, 0, 0, time.UTC), 0.6, 0.4)
	saturday := Profile(time.Date(2010, 5, 1, 12, 0, 0, 0, time.UTC), 0.6, 0.4)
	if saturday >= monday {
		t.Fatalf("saturday %v must be below monday %v", saturday, monday)
	}
	if math.Abs(saturday/monday-0.6) > 1e-9 {
		t.Fatalf("weekend ratio = %v, want 0.6", saturday/monday)
	}
}

func TestGeneratedSeasonality(t *testing.T) {
	cfg := smallConfig()
	cfg.Units = 4 * 96 // four days of 15-minute units
	cfg.BaseRate = 50
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count records around 16:00 vs around 04:00.
	var peakCount, troughCount int
	for _, r := range d.Records {
		switch r.Time.Hour() {
		case 15, 16, 17:
			peakCount++
		case 3, 4, 5:
			troughCount++
		}
	}
	if peakCount <= troughCount {
		t.Fatalf("peak-hour records (%d) must exceed trough-hour (%d)", peakCount, troughCount)
	}
}

func TestTicketMixReproduced(t *testing.T) {
	// Table I: generated first-level shares must track the mix.
	cfg := smallConfig()
	cfg.Shape = Shape{Degrees: []int{7, 3, 2}, LevelPrefix: []string{"cat", "sub", "leaf"}}
	cfg.Mix = CCDTicketMix()
	cfg.Units = 96
	cfg.BaseRate = 300
	cfg.ZipfS = 0.8
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist := d.FirstLevelDistribution()
	if len(dist) == 0 {
		t.Fatal("empty distribution")
	}
	if dist[0].Name != "TV" {
		t.Fatalf("top category = %s, want TV", dist[0].Name)
	}
	got := make(map[string]float64, len(dist))
	for _, e := range dist {
		got[e.Name] = e.Share
	}
	for _, want := range CCDTicketMix() {
		if math.Abs(got[want.Name]-want.Share) > 0.05 {
			t.Fatalf("share of %s = %v, want ≈ %v", want.Name, got[want.Name], want.Share)
		}
	}
}

func TestInjectedAnomalyVisible(t *testing.T) {
	cfg := smallConfig()
	cfg.BaseRate = 10
	cfg.Anomalies = []AnomalySpec{{
		Path:         []string{"a1"},
		StartUnit:    40,
		EndUnit:      44,
		ExtraPerUnit: 200,
	}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Truth) != 1 {
		t.Fatal("truth not recorded")
	}
	target := hierarchy.KeyOf([]string{"a1"})
	inWindow := func(ts time.Time) bool {
		u := int(ts.Sub(cfg.Start) / cfg.Delta)
		return u >= 40 && u < 44
	}
	var insideCount, unitSpan float64
	var outsideCount, outsideSpan float64
	for _, r := range d.Records {
		if !target.IsAncestorOf(r.Key()) {
			continue
		}
		if inWindow(r.Time) {
			insideCount++
		} else {
			outsideCount++
		}
	}
	unitSpan = 4
	outsideSpan = float64(cfg.Units) - unitSpan
	insideRate := insideCount / unitSpan
	outsideRate := outsideCount / outsideSpan
	if insideRate < 10*outsideRate {
		t.Fatalf("anomaly window rate %v not clearly above baseline %v", insideRate, outsideRate)
	}
	if k := cfg.Anomalies[0].Key(); k != target {
		t.Fatalf("AnomalySpec.Key = %v", k)
	}
}

func TestAnomalyOnUnknownPath(t *testing.T) {
	cfg := smallConfig()
	cfg.Anomalies = []AnomalySpec{{Path: []string{"nope"}, StartUnit: 0, EndUnit: 1, ExtraPerUnit: 5}}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("anomaly on unmatched path must fail")
	}
}

func TestPoissonMoments(t *testing.T) {
	f := func(seed int64, lamRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := float64(lamRaw%100) + 0.5
		n := 3000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / float64(n)
		// Within 5 standard errors.
		se := math.Sqrt(lambda / float64(n))
		return math.Abs(mean-lambda) < 5*se+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPickBoundaries(t *testing.T) {
	cum := []float64{0.25, 0.5, 1.0}
	if pick(cum, 0) != 0 || pick(cum, 0.25) != 0 || pick(cum, 0.26) != 1 || pick(cum, 1) != 2 {
		t.Fatal("pick boundaries wrong")
	}
}

func TestDatasetFeedsStream(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stream.NewWindower(cfg.Delta)
	if err != nil {
		t.Fatal(err)
	}
	w.BindTree(hierarchy.New())
	units := 0
	var total float64
	for i, r := range d.Records {
		done, err := w.ObserveDense(r)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !w.Start().Equal(cfg.Start) {
			t.Fatalf("first unit start = %v, want %v", w.Start(), cfg.Start)
		}
		for _, u := range done {
			units++
			total += u.Total()
		}
	}
	units++
	total += w.FlushDense().Total()
	if units > cfg.Units {
		t.Fatalf("windowed %d units, config had %d", units, cfg.Units)
	}
	if int(total) != len(d.Records) {
		t.Fatalf("windowed %v records, generated %d", total, len(d.Records))
	}
}

func TestChurnRetiresAndBirthsLeaves(t *testing.T) {
	cfg := smallConfig()
	cfg.Churn = []ChurnSpec{
		{Path: []string{"a0"}, BornUnit: 0, DieUnit: 40}, // dies mid-run
		{Path: []string{"a1", "b0"}, BornUnit: 50},       // born mid-run
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := hierarchy.KeyOf([]string{"a0"})
	unborn := hierarchy.KeyOf([]string{"a1", "b0"})
	for _, r := range d.Records {
		u := int(r.Time.Sub(cfg.Start) / cfg.Delta)
		k := hierarchy.KeyOf(r.Path)
		if u >= 40 && dead.IsAncestorOf(k) {
			t.Fatalf("record under retired a0 at unit %d", u)
		}
		if u < 50 && unborn.IsAncestorOf(k) {
			t.Fatalf("record under unborn a1/b0 at unit %d", u)
		}
	}
	// Mass is renormalized, not dropped: the overall rate stays near
	// the no-churn rate.
	base, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(d.Records)) / float64(len(base.Records))
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("churned/unchurned record ratio = %v, want ~1 (renormalized mass)", ratio)
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Churn = []ChurnSpec{{Path: []string{"a0"}, BornUnit: -1}}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("negative born unit must fail validation")
	}
	cfg.Churn = []ChurnSpec{{Path: []string{"a0"}, BornUnit: 10, DieUnit: 5}}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("die before born must fail validation")
	}
}

func TestChurnedAnomalyPoolFallsBack(t *testing.T) {
	// Anomaly targets a subtree retired before the anomaly starts: the
	// injection must still happen (on the full pool), not be dropped.
	cfg := smallConfig()
	cfg.Churn = []ChurnSpec{{Path: []string{"a0"}, BornUnit: 0, DieUnit: 10}}
	cfg.Anomalies = []AnomalySpec{{Path: []string{"a0"}, StartUnit: 60, EndUnit: 70, ExtraPerUnit: 50}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	under := hierarchy.KeyOf([]string{"a0"})
	for _, r := range d.Records {
		u := int(r.Time.Sub(cfg.Start) / cfg.Delta)
		if u >= 60 && u < 70 && under.IsAncestorOf(hierarchy.KeyOf(r.Path)) {
			injected++
		}
	}
	if injected < 100 {
		t.Fatalf("retired-subtree anomaly injected only %d records, want hundreds", injected)
	}
}

func TestTrendPerUnit(t *testing.T) {
	cfg := smallConfig()
	cfg.DiurnalStrength, cfg.WeeklyStrength = 0, 0
	cfg.TrendPerUnit = 0.02 // ~2.9x rate by the last of 96 units
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstHalf, secondHalf := 0, 0
	for _, r := range d.Records {
		if int(r.Time.Sub(cfg.Start)/cfg.Delta) < cfg.Units/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if secondHalf <= firstHalf {
		t.Fatalf("positive trend: second half %d must exceed first half %d", secondHalf, firstHalf)
	}
	// A steep negative trend floors at zero instead of going negative.
	cfg.TrendPerUnit = -0.05 // zero from unit 20 on
	d, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Records {
		if u := int(r.Time.Sub(cfg.Start) / cfg.Delta); u >= 21 {
			t.Fatalf("record at unit %d after the trend floored the rate at zero", u)
		}
	}
}

func TestDuplicateUnder(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, dups := DuplicateUnder(d.Records, []string{"a0"}, cfg.Start, cfg.Delta, 10, 20, 2)
	if dups == 0 {
		t.Fatal("no duplicates inserted")
	}
	if len(out) != len(d.Records)+dups {
		t.Fatalf("len(out) = %d, want %d + %d", len(out), len(d.Records), dups)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time.Before(out[i-1].Time) {
			t.Fatalf("duplicate flood broke time order at %d", i)
		}
	}
	under := hierarchy.KeyOf([]string{"a0"})
	originals := 0
	for _, r := range d.Records {
		u := int(r.Time.Sub(cfg.Start) / cfg.Delta)
		if u >= 10 && u < 20 && under.IsAncestorOf(hierarchy.KeyOf(r.Path)) {
			originals++
		}
	}
	if dups != 2*originals {
		t.Fatalf("dups = %d, want 2x the %d originals in span", dups, originals)
	}
}

func TestShuffleWithinUnitsPreservesUnitMembership(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[int]int)
	for _, r := range d.Records {
		before[int(r.Time.Sub(cfg.Start)/cfg.Delta)]++
	}
	shuffled := append([]stream.Record(nil), d.Records...)
	ShuffleWithinUnits(NewRand(7), shuffled, cfg.Start, cfg.Delta)
	// Unit membership unchanged; cross-unit order unchanged.
	prevUnit := -1
	after := make(map[int]int)
	for _, r := range shuffled {
		u := int(r.Time.Sub(cfg.Start) / cfg.Delta)
		if u < prevUnit {
			t.Fatalf("shuffle crossed a unit boundary: unit %d after %d", u, prevUnit)
		}
		prevUnit = u
		after[u]++
	}
	for u, n := range before {
		if after[u] != n {
			t.Fatalf("unit %d count changed %d -> %d", u, n, after[u])
		}
	}
	// And it actually permuted something.
	moved := false
	for i := range shuffled {
		if !shuffled[i].Time.Equal(d.Records[i].Time) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("shuffle was a no-op")
	}
}

func TestDisplaceAcrossBoundaries(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]stream.Record(nil), d.Records...)
	n := DisplaceAcrossBoundaries(NewRand(3), recs, cfg.Start, cfg.Delta, 5)
	if n != 5 {
		t.Fatalf("displaced %d, want 5", n)
	}
	// Exactly n adjacent pairs are now out of time order.
	inversions := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			inversions++
		}
	}
	if inversions != n {
		t.Fatalf("inversions = %d, want %d", inversions, n)
	}
}

func TestGenerateDeterministicWithTransforms(t *testing.T) {
	mk := func() []stream.Record {
		cfg := smallConfig()
		cfg.Churn = []ChurnSpec{{Path: []string{"a2"}, BornUnit: 30}}
		cfg.TrendPerUnit = 0.001
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := DuplicateUnder(d.Records, []string{"a0"}, cfg.Start, cfg.Delta, 10, 20, 1)
		ShuffleWithinUnits(NewRand(11), recs, cfg.Start, cfg.Delta)
		DisplaceAcrossBoundaries(NewRand(12), recs, cfg.Start, cfg.Delta, 3)
		return recs
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || hierarchy.KeyOf(a[i].Path) != hierarchy.KeyOf(b[i].Path) {
			t.Fatalf("records differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
