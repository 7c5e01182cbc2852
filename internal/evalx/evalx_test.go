package evalx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tiresias/internal/hierarchy"
)

func key(parts ...string) hierarchy.Key { return hierarchy.KeyOf(parts) }

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 85, FN: 5}
	if got := c.Accuracy(); math.Abs(got-0.93) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 0.93", got)
	}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("Precision = %v, want 0.8", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/13) > 1e-9 {
		t.Fatalf("Recall = %v, want %v", got, 8.0/13)
	}
	var zero Confusion
	if zero.Accuracy() != 0 || zero.Precision() != 0 || zero.Recall() != 0 {
		t.Fatal("zero confusion must score 0 everywhere")
	}
}

func TestCompare(t *testing.T) {
	u := []Event{
		{Key: key("a"), Instance: 1},
		{Key: key("b"), Instance: 1},
		{Key: key("a"), Instance: 2},
		{Key: key("b"), Instance: 2},
	}
	truth := []Event{{Key: key("a"), Instance: 1}, {Key: key("b"), Instance: 2}}
	pred := []Event{{Key: key("a"), Instance: 1}, {Key: key("b"), Instance: 1}}
	c := Compare(u, truth, pred)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestCompareWithReferenceAncestorMatching(t *testing.T) {
	// Reference alarms at VHO level; Tiresias localizes one of them
	// to a CO below the same VHO, misses another, and finds a new
	// one elsewhere.
	reference := []Event{
		{Key: key("vho1"), Instance: 5},
		{Key: key("vho2"), Instance: 9},
	}
	tiresias := []Event{
		{Key: key("vho1", "io1", "co3"), Instance: 5}, // matches vho1 (finer granularity)
		{Key: key("vho3", "io2"), Instance: 7},        // new anomaly
	}
	screened := []Event{
		{Key: key("vho1"), Instance: 6},
		{Key: key("vho2"), Instance: 9}, // related to a reference anomaly → not TN
		{Key: key("vho4"), Instance: 5},
	}
	r := CompareWithReference(reference, tiresias, screened)
	if r.TrueAlarms != 1 {
		t.Fatalf("TA = %d, want 1", r.TrueAlarms)
	}
	if r.MissedAnomalies != 1 {
		t.Fatalf("MA = %d, want 1", r.MissedAnomalies)
	}
	if r.NewAnomalies != 1 {
		t.Fatalf("NA = %d, want 1", r.NewAnomalies)
	}
	if r.TrueNegatives != 2 {
		t.Fatalf("TN = %d, want 2", r.TrueNegatives)
	}
	if r.NewByDepth[2] != 1 {
		t.Fatalf("NewByDepth = %v, want depth 2 → 1", r.NewByDepth)
	}
	// Type metrics per Table VI's definitions.
	if got := r.Type1(); math.Abs(got-3.0/5) > 1e-9 {
		t.Fatalf("Type1 = %v, want 0.6", got)
	}
	if got := r.Type2(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Type2 = %v, want 0.5", got)
	}
	if got := r.Type3(); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Type3 = %v, want 2/3", got)
	}
}

func TestCompareWithReferenceEmpty(t *testing.T) {
	r := CompareWithReference(nil, nil, nil)
	if r.Type1() != 0 || r.Type2() != 0 || r.Type3() != 0 {
		t.Fatal("empty comparison must score 0")
	}
}

func TestNewByDepthDedupesAncestors(t *testing.T) {
	tiresias := []Event{
		{Key: key("vho1", "io1"), Instance: 3},
		{Key: key("vho1", "io1", "co2"), Instance: 3}, // most specific survives
	}
	r := CompareWithReference(nil, tiresias, nil)
	if r.NewAnomalies != 2 {
		t.Fatalf("NA = %d, want 2 (dedup applies only to the histogram)", r.NewAnomalies)
	}
	if r.NewByDepth[3] != 1 || r.NewByDepth[2] != 0 {
		t.Fatalf("NewByDepth = %v, want only depth 3", r.NewByDepth)
	}
}

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{0, 0, 1, 2, 4})
	// Normalized by max=4: points at 0.25 (P=3/5), 0.5 (P=2/5), 1 (P=1/5).
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	want := []CCDFPoint{{X: 0.25, P: 0.6}, {X: 0.5, P: 0.4}, {X: 1, P: 0.2}}
	for i := range want {
		if math.Abs(pts[i].X-want[i].X) > 1e-9 || math.Abs(pts[i].P-want[i].P) > 1e-9 {
			t.Fatalf("pts = %+v, want %+v", pts, want)
		}
	}
}

func TestCCDFEdgeCases(t *testing.T) {
	if CCDF(nil) != nil {
		t.Fatal("empty input must return nil")
	}
	pts := CCDF([]float64{0, 0})
	if len(pts) != 1 || pts[0].P != 1 {
		t.Fatalf("all-zero CCDF = %+v", pts)
	}
}

// TestCCDFMonotone: P must be non-increasing in X.
func TestCCDFMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(3) > 0 { // sparse: many zeros
				vals[i] = float64(rng.Intn(50))
			}
		}
		pts := CCDF(vals)
		allZero := true
		for _, v := range vals {
			if v > 0 {
				allZero = false
			}
		}
		if allZero {
			return len(pts) == 1 && pts[0].X == 0 && pts[0].P == 1
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P > pts[i-1].P {
				return false
			}
		}
		for _, p := range pts {
			if p.P <= 0 || p.P > 1 || p.X <= 0 || p.X > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
