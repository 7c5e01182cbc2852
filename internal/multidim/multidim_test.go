package multidim

import (
	"math/rand"
	"testing"
	"time"

	"tiresias"

	"tiresias/internal/detect"
)

func start() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) }

func dimOptions(window int) []tiresias.Option {
	return []tiresias.Option{
		tiresias.WithDelta(15 * time.Minute),
		tiresias.WithWindowLen(window),
		tiresias.WithTheta(4),
		tiresias.WithSeasonality(1.0, 4),
		tiresias.WithThresholds(detect.Thresholds{RT: 2.0, DT: 8}),
	}
}

// makeHistory produces steady two-dimension records — trouble
// categories and network paths — for units [from, to).
func makeHistory(from, to, perUnit int, rng *rand.Rand) []DimRecord {
	troubles := [][]string{{"tv", "nosvc"}, {"net", "slow"}}
	paths := [][]string{{"vho1", "io1"}, {"vho2", "io1"}}
	var out []DimRecord
	for u := from; u < to; u++ {
		base := start().Add(time.Duration(u) * 15 * time.Minute)
		for i := 0; i < perUnit; i++ {
			out = append(out, DimRecord{
				Paths: [][]string{
					troubles[rng.Intn(len(troubles))],
					paths[rng.Intn(len(paths))],
				},
				Time: base.Add(time.Duration(rng.Intn(15)) * time.Minute),
			})
		}
	}
	return out
}

func newRunner(t *testing.T, window int) *Runner {
	t.Helper()
	r, err := New([]Dimension{
		{Name: "trouble", Options: dimOptions(window)},
		{Name: "netpath", Options: dimOptions(window)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty dimensions must fail")
	}
	if _, err := New([]Dimension{{Name: "x", Options: []tiresias.Option{tiresias.WithDelta(0)}}}); err == nil {
		t.Fatal("bad dimension options must fail")
	}
	// Mismatched deltas.
	_, err := New([]Dimension{
		{Name: "a", Options: []tiresias.Option{tiresias.WithDelta(15 * time.Minute)}},
		{Name: "b", Options: []tiresias.Option{tiresias.WithDelta(time.Hour)}},
	})
	if err == nil {
		t.Fatal("mismatched deltas must fail")
	}
}

func TestRunnerLifecycle(t *testing.T) {
	r := newRunner(t, 8)
	if got := r.Dimensions(); len(got) != 2 || got[0] != "trouble" || got[1] != "netpath" {
		t.Fatalf("Dimensions = %v", got)
	}
	if _, err := r.Step(nil); err == nil {
		t.Fatal("Step before Warmup must fail")
	}
	rng := rand.New(rand.NewSource(1))
	if err := r.Warmup(makeHistory(0, 8, 12, rng)); err != nil {
		t.Fatal(err)
	}
	if err := r.Warmup(nil); err == nil {
		t.Fatal("second Warmup must fail")
	}
	if _, err := r.Step(nil); err == nil {
		t.Fatal("a unit without records must fail")
	}
	bad := []DimRecord{{Paths: [][]string{{"only-one"}}, Time: start().Add(8 * 15 * time.Minute)}}
	if _, err := r.Step(bad); err == nil {
		t.Fatal("record with wrong path count must fail")
	}
	if _, err := r.Step(makeHistory(2, 3, 12, rng)); err == nil {
		t.Fatal("a unit behind the clock must fail")
	}
}

func TestWarmupRejectsBadRecords(t *testing.T) {
	r := newRunner(t, 4)
	bad := []DimRecord{{Paths: [][]string{{"only-one"}}, Time: start()}}
	if err := r.Warmup(bad); err == nil {
		t.Fatal("record with wrong path count must fail")
	}
}

func TestCrossDimensionalIncident(t *testing.T) {
	r := newRunner(t, 8)
	rng := rand.New(rand.NewSource(2))
	if err := r.Warmup(makeHistory(0, 8, 12, rng)); err != nil {
		t.Fatal(err)
	}
	// A quiet unit first: no incident.
	inc, err := r.Step(makeHistory(8, 9, 12, rng))
	if err != nil {
		t.Fatal(err)
	}
	if inc != nil {
		t.Fatalf("quiet unit produced incident: %+v", inc)
	}
	// A burst that is simultaneously "tv/nosvc" and "vho1/io1": both
	// dimensions must fire and correlate into one incident.
	var burst []DimRecord
	for i := 0; i < 200; i++ {
		burst = append(burst, DimRecord{
			Paths: [][]string{{"tv", "nosvc"}, {"vho1", "io1"}},
			Time:  start().Add(9 * 15 * time.Minute),
		})
	}
	inc, err = r.Step(burst)
	if err != nil {
		t.Fatal(err)
	}
	if inc == nil {
		t.Fatal("burst produced no incident")
	}
	if inc.Instance != 2 {
		t.Fatalf("incident instance = %d, want 2 (the second unit after warm-up)", inc.Instance)
	}
	if !inc.CrossDimensional() {
		t.Fatalf("incident not cross-dimensional: %+v", inc)
	}
	dims := map[string]bool{}
	for _, a := range inc.Anomalies {
		dims[a.Dimension] = true
	}
	if !dims["trouble"] || !dims["netpath"] {
		t.Fatalf("dimensions fired = %v", dims)
	}
}

func TestIncidentCrossDimensional(t *testing.T) {
	single := Incident{Anomalies: []DimAnomaly{{Dimension: "a"}, {Dimension: "a"}}}
	if single.CrossDimensional() {
		t.Fatal("single-dimension incident misclassified")
	}
	cross := Incident{Anomalies: []DimAnomaly{{Dimension: "a"}, {Dimension: "b"}}}
	if !cross.CrossDimensional() {
		t.Fatal("cross-dimension incident misclassified")
	}
}
