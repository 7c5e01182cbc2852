// Stbcrash reproduces the paper's second case study (§II-A, §VII-A
// "Results for SCD"): set-top-box crash logs over a wide, shallow
// hierarchy (CO → DSLAM → STB) with a single daily seasonality and
// lower variance. It demonstrates the large-fan-out regime — the SHHH
// set is big and stable, splits are rare, and ADA's series stay very
// close to exact.
//
//	go run ./examples/stbcrash
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/experiments"
	"tiresias/internal/gen"
	"tiresias/internal/stream"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	delta := time.Hour
	warm, detectUnits := 3*24, 24

	// A firmware wave crashing STBs under one DSLAM.
	incident := gen.AnomalySpec{
		Path:         []string{"co3", "dslam7"},
		StartUnit:    warm + 8,
		EndUnit:      warm + 12,
		ExtraPerUnit: 120,
	}
	cfg := gen.Config{
		Shape:           gen.SCDNetworkShape(0.01), // 20 COs x 30 DSLAMs x 6 STBs
		Start:           time.Date(2010, 9, 2, 0, 0, 0, 0, time.UTC),
		Units:           warm + detectUnits,
		Delta:           delta,
		BaseRate:        600,
		DiurnalStrength: 0.35, // SCD's milder diurnal swing
		WeeklyStrength:  0,
		ZipfS:           0.6,
		Seed:            23,
		Anomalies:       []gen.AnomalySpec{incident},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		return err
	}
	units, _, err := experiments.Collect(stream.NewSliceSource(ds.Records), delta)
	if err != nil {
		return err
	}
	for len(units) < cfg.Units {
		units = append(units, algo.Timeunit{})
	}
	fmt.Printf("STB crash log: %d crash events, hierarchy of %d leaves\n",
		len(ds.Records), cfg.Shape.NumLeaves())

	// Run ADA and STA side by side to show the SCD accuracy claim.
	mk := func(name string) (algo.Engine, error) {
		return newEngine(name, algo.Config{
			Theta:         10,
			WindowLen:     warm,
			Rule:          algo.LongTermHistory,
			RefLevels:     1,
			NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
		})
	}
	ada, err := mk("ADA")
	if err != nil {
		return err
	}
	sta, err := mk("STA")
	if err != nil {
		return err
	}
	if _, err := algo.InitTimeunits(ada, units[:warm]); err != nil {
		return err
	}
	if _, err := algo.InitTimeunits(sta, units[:warm]); err != nil {
		return err
	}
	det, err := detect.New(detect.Thresholds{RT: 2.0, DT: 15})
	if err != nil {
		return err
	}
	var found bool
	var errSum, refSum float64
	for i, u := range units[warm:] {
		stA, err := algo.StepTimeunit(ada, u)
		if err != nil {
			return err
		}
		if _, err := algo.StepTimeunit(sta, u); err != nil {
			return err
		}
		for _, a := range det.Scan(stA, time.Time{}) {
			fmt.Printf("  unit %2d: crash storm at %s (%.0f vs forecast %.1f)\n",
				i, a.Key, a.Actual, a.Forecast)
			if incident.Key().IsAncestorOf(a.Key) && i >= 7 && i <= 13 {
				found = true
			}
		}
		// Accumulate ADA-vs-STA series error over heavy hitters.
		for _, hh := range stA.HeavyHitters {
			exact := sta.SeriesOf(sta.Tree().Lookup(hh.Key))
			approx := ada.SeriesOf(hh.ID)
			n := min(len(exact), len(approx))
			for j := 1; j <= n; j++ {
				errSum += math.Abs(exact[len(exact)-j] - approx[len(approx)-j])
				refSum += math.Abs(exact[len(exact)-j])
			}
		}
	}
	if refSum > 0 {
		fmt.Printf("\nADA vs STA mean series error: %.2f%% (paper reports ~0.8%% for SCD)\n",
			100*errSum/refSum)
	}
	if !found {
		return fmt.Errorf("the injected DSLAM crash storm was not localized")
	}
	fmt.Println("the DSLAM-level crash storm was detected and localized below the CO level")
	return nil
}

func newEngine(name string, cfg algo.Config) (algo.Engine, error) {
	if name == "STA" {
		return algo.NewSTA(cfg)
	}
	return algo.NewADA(cfg)
}
