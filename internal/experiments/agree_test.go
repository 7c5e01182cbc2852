package experiments

import (
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// TestSTAandADAAgreeOnAnomalies drives the strawman and the adaptive
// engine over the same stream with the detector's default
// configuration and Definition-4 screening: both must flag the
// injected spike.
func TestSTAandADAAgreeOnAnomalies(t *testing.T) {
	const warm = 48
	delta := 15 * time.Minute
	spike := gen.AnomalySpec{
		Path:         []string{"v2", "io1"},
		StartUnit:    warm + 10,
		EndUnit:      warm + 13,
		ExtraPerUnit: 300,
	}
	d, err := gen.Generate(gen.Config{
		Shape:           gen.Shape{Degrees: []int{4, 3}, LevelPrefix: []string{"v", "io"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           warm + 20,
		Delta:           delta,
		BaseRate:        40,
		DiurnalStrength: 0.5,
		ZipfS:           0.8,
		Seed:            42,
		Anomalies:       []gen.AnomalySpec{spike},
	})
	if err != nil {
		t.Fatal(err)
	}
	units, _, err := stream.Collect(stream.NewSliceSource(d.Records), delta)
	if err != nil {
		t.Fatal(err)
	}
	cfg := algo.Config{
		Theta:         5,
		WindowLen:     warm,
		Rule:          algo.LongTermHistory,
		RuleAlpha:     0.4,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
	}
	run := func(e algo.Engine) []detect.Anomaly {
		det, err := detect.New(detect.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Init(units[:warm]); err != nil {
			t.Fatal(err)
		}
		var out []detect.Anomaly
		for _, u := range units[warm:] {
			st, err := algo.StepTimeunit(e, u)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, det.Scan(st, time.Time{})...)
		}
		return out
	}
	ada, err := algo.NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sta, err := algo.NewSTA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaAnoms := run(ada)
	staAnoms := run(sta)
	// Both must flag the injected spike window under v2.
	target := hierarchy.KeyOf([]string{"v2"})
	check := func(name string, as []detect.Anomaly) {
		for _, a := range as {
			if a.Instance >= 10 && a.Instance < 15 && target.IsAncestorOf(a.Key) {
				return
			}
		}
		t.Fatalf("%s missed the injected spike: %+v", name, as)
	}
	check("ADA", adaAnoms)
	check("STA", staAnoms)
}
