// Streaming demonstrates the fully online v2 deployment (Steps 1–6 of
// Fig. 3) in one call: Run ingests the record feed incrementally —
// warming itself on the first window of timeunits, then screening
// every further unit the moment it completes — while sinks stream the
// detections out. Here one sink files them into a bounded anomaly
// index (what tiresias-serve's query API and dashboard read) and
// another logs live; the whole pipeline holds O(window) timeunits in
// memory no matter how long the feed runs.
//
//	go run ./examples/streaming
//
// The example drives itself with a simulated feed (time compressed),
// queries the index for the injected subtree at the end, and exits.
// examples/client shows the same queries over the served /v2 API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tiresias"

	"tiresias/internal/gen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		warm = 96
		live = 48
	)
	delta := 15 * time.Minute
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{5, 4}, LevelPrefix: []string{"pop", "edge"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           warm + live,
		Delta:           delta,
		BaseRate:        80,
		DiurnalStrength: 0.5,
		ZipfS:           0.9,
		Seed:            5,
		Anomalies: []gen.AnomalySpec{{
			Path: []string{"pop2", "edge1"}, StartUnit: warm + 25, EndUnit: warm + 29, ExtraPerUnit: 250,
		}},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		return err
	}

	// Two sinks: the bounded index an operator queries, and a live
	// logger.
	ix := tiresias.NewAnomalyIndex(1024)
	logSink := tiresias.SinkFuncs{
		Anomaly: func(a tiresias.Anomaly) {
			fmt.Printf("  live unit %2d: anomaly at %s (%.0f vs %.1f)\n",
				a.Instance, a.Key, a.Actual, a.Forecast)
		},
	}
	t, err := tiresias.New(
		tiresias.WithDelta(delta),
		tiresias.WithWindowLen(warm),
		tiresias.WithTheta(6),
		tiresias.WithSeasonality(1.0, 96),
		tiresias.WithThresholds(tiresias.Thresholds{RT: 2.5, DT: 10}),
		tiresias.WithSink(tiresias.NewIndexSink(ix, "edge")),
		tiresias.WithSink(logSink),
	)
	if err != nil {
		return err
	}

	// One call: the first `warm` completed units warm the detector,
	// every later unit is screened as it completes, anomalies stream
	// to the sinks. Cancel the context to stop a real endless feed.
	res, err := t.Run(context.Background(), tiresias.NewSliceSource(ds.Records))
	if err != nil {
		return err
	}
	fmt.Printf("\nprocessed %d live units (%d heavy hitters, %d anomalies)\n",
		res.Units, res.HeavyHitterCount, res.AnomalyCount)

	// Query the index the way an operator would: the injected subtree,
	// newest first.
	under := tiresias.KeyOf([]string{"pop2"})
	fetched := ix.Query(tiresias.AnomalyQuery{Stream: "edge", Under: under, Limit: 100})
	fmt.Printf("index query under %s returned %d anomalies\n", under, len(fetched))
	if len(fetched) == 0 {
		return fmt.Errorf("expected the injected edge spike in the anomaly index")
	}
	return nil
}
