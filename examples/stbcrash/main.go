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
	"tiresias/internal/checkpoint"
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
	w, err := experiments.Collect(stream.NewSliceSource(ds.Records), delta, cfg.Units)
	if err != nil {
		return err
	}
	fmt.Printf("STB crash log: %d crash events, hierarchy of %d leaves\n",
		len(ds.Records), cfg.Shape.NumLeaves())

	// Run ADA and STA side by side to show the SCD accuracy claim,
	// both as the server's default detector over an hourly 3-day
	// window with SCD's single daily season, h = 1 and looser
	// thresholds. ADA's tree grows as categories appear
	// (experiments.Replay); STA, exact whatever its tree holds, runs
	// on the collected one.
	det := checkpoint.DefaultConfig()
	det.Delta, det.WindowLen, det.RefLevels = delta, warm, 1
	det.AutoSeason, det.SeasonPeriods = false, []int{24}
	det.Thresholds = detect.Thresholds{RT: 2.0, DT: 15}
	engCfg := det.Engine(det.Seasonality(w.Units[:warm]))
	ada, err := algo.NewADA(engCfg)
	if err != nil {
		return err
	}
	engCfg.Tree = w.Tree
	sta, err := algo.NewSTA(engCfg)
	if err != nil {
		return err
	}
	if _, err := sta.Init(w.Units[:warm]); err != nil {
		return err
	}
	screen, err := detect.New(det.Thresholds)
	if err != nil {
		return err
	}
	var found bool
	var errSum, refSum float64
	err = experiments.Replay(ada, w.Tree, w.Units, warm, func(stA *algo.StepState) error {
		if stA.Instance == 0 {
			return nil
		}
		i := stA.Instance - 1
		if _, err := sta.StepDense(w.Units[warm+i]); err != nil {
			return err
		}
		for _, a := range screen.Scan(stA, time.Time{}) {
			fmt.Printf("  unit %2d: crash storm at %s (%.0f vs forecast %.1f)\n",
				i, a.Key, a.Actual, a.Forecast)
			if incident.Key().IsAncestorOf(a.Key) && i >= 7 && i <= 13 {
				found = true
			}
		}
		// Accumulate ADA-vs-STA series error over heavy hitters; both
		// engines number nodes as the collected tree does.
		for _, hh := range stA.HeavyHitters {
			exact := sta.SeriesOf(hh.ID)
			approx := ada.SeriesOf(hh.ID)
			n := min(len(exact), len(approx))
			for j := 1; j <= n; j++ {
				errSum += math.Abs(exact[len(exact)-j] - approx[len(approx)-j])
				refSum += math.Abs(exact[len(exact)-j])
			}
		}
		return nil
	})
	if err != nil {
		return err
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
