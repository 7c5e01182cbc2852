// Callcenter reproduces the paper's flagship scenario (§VII-B): a
// customer-care call stream over the CCD network-path hierarchy
// (VHO → IO → CO → DSLAM) with dual day/week seasonality. It runs both
// Tiresias/ADA and the operator's current practice — a 3σ control
// chart on VHO-level aggregates — against three injected incidents at
// different depths, and shows which incidents each method localizes.
//
//	go run ./examples/callcenter
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tiresias"

	"tiresias/internal/experiments"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
	"tiresias/internal/refmethod"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	delta := time.Hour
	unitsPerDay := 24
	warm := 14 * unitsPerDay // two weeks of hourly history
	run := 3 * unitsPerDay

	incidents := []gen.AnomalySpec{
		// A full-VHO outage: both methods should see this one.
		{Path: []string{"vho2"}, StartUnit: warm + 10, EndUnit: warm + 13, ExtraPerUnit: 900},
		// A CO-level incident: far too small to move the VHO
		// aggregate — the reference method's blind spot.
		{Path: []string{"vho0", "io1", "co2"}, StartUnit: warm + 30, EndUnit: warm + 33, ExtraPerUnit: 140},
		// A single-DSLAM failure, deeper still.
		{Path: []string{"vho3", "io0", "co1", "dslam1"}, StartUnit: warm + 50, EndUnit: warm + 52, ExtraPerUnit: 90},
	}
	cfg := gen.Config{
		Shape:           gen.CCDNetworkShape(0.08), // scaled-down VHO fan-out
		Start:           time.Date(2010, 9, 6, 0, 0, 0, 0, time.UTC),
		Units:           warm + run,
		Delta:           delta,
		BaseRate:        800,
		DiurnalStrength: 0.6,
		WeeklyStrength:  0.35,
		ZipfS:           0.9,
		Seed:            11,
		Anomalies:       incidents,
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		return err
	}
	// The reference chart reads whole timeunits of counts.
	w, err := experiments.Collect(tiresias.NewSliceSource(ds.Records), delta, cfg.Units)
	if err != nil {
		return err
	}
	fmt.Printf("call-center stream: %d calls, %d hourly units, 3 injected incidents\n\n",
		len(ds.Records), len(w.Units))

	// --- Tiresias (ADA, dual seasonality day+week). ---
	t, err := tiresias.New(
		tiresias.WithDelta(delta),
		tiresias.WithWindowLen(warm),
		tiresias.WithTheta(12),
		tiresias.WithSeasonality(0.76, unitsPerDay, 7*unitsPerDay),
		tiresias.WithSplitRule(tiresias.LongTermHistory),
		tiresias.WithReferenceLevels(2),
		tiresias.WithThresholds(tiresias.Thresholds{RT: 2.2, DT: 20}),
	)
	if err != nil {
		return err
	}
	// Tiresias reads the calls themselves: the first two weeks warm it
	// up, every later hour is screened.
	res, err := t.Run(context.Background(), tiresias.NewSliceSource(ds.Records))
	if err != nil {
		return err
	}
	tiresiasAnoms := res.Anomalies

	// --- Reference method: 3σ chart on VHO aggregates. ---
	chart, err := refmethod.New(refmethod.Config{K: 3, Window: warm / 2, MinSigma: 2}, w.Tree)
	if err != nil {
		return err
	}
	var refAlarms []refmethod.Alarm
	for i, u := range w.Units {
		for _, al := range chart.Observe(u) {
			if i >= warm {
				al.Instance = i - warm
				refAlarms = append(refAlarms, al)
			}
		}
	}

	// --- Score both against the injected truth. ---
	fmt.Println("incident                                  Tiresias   VHO chart")
	fmt.Println("---------------------------------------------------------------")
	for _, inc := range incidents {
		k := inc.Key()
		tFound := covered(k, inc, warm, eventTimes(tiresiasAnoms))
		rFound := covered(k, inc, warm, refTimes(refAlarms))
		fmt.Printf("%-40s  %-9v  %v\n", fmt.Sprintf("%s (units %d-%d)", k, inc.StartUnit-warm, inc.EndUnit-warm), tFound, rFound)
	}
	fmt.Printf("\nTiresias raised %d anomalies total; the chart raised %d alarms.\n",
		len(tiresiasAnoms), len(refAlarms))
	fmt.Println("\nDeep incidents are invisible at the VHO aggregate — the hierarchy-aware")
	fmt.Println("detector localizes them; this is the \"new anomaly\" effect of Table VI.")
	return nil
}

type event struct {
	key      hierarchy.Key
	instance int
}

func eventTimes(as []tiresias.Anomaly) []event {
	out := make([]event, 0, len(as))
	for _, a := range as {
		out = append(out, event{key: a.Key, instance: a.Instance})
	}
	return out
}

func refTimes(as []refmethod.Alarm) []event {
	out := make([]event, 0, len(as))
	for _, a := range as {
		out = append(out, event{key: a.Key, instance: a.Instance})
	}
	return out
}

// covered reports whether any event falls inside the incident window
// (±1 unit) at the incident node or below it.
func covered(k hierarchy.Key, inc gen.AnomalySpec, warm int, events []event) bool {
	lo, hi := inc.StartUnit-warm-1, inc.EndUnit-warm+1
	for _, e := range events {
		if e.instance >= lo && e.instance <= hi && k.IsAncestorOf(e.key) {
			return true
		}
	}
	return false
}
