// Multidim monitors both hierarchical dimensions of a customer-care
// record at once — the trouble description ("what") and the network
// path ("where"), as in §II-A of the paper — and correlates their
// anomalies into cross-dimensional incidents: the operator sees that
// "TV / No Service" spiked at the same instant as "vho1/io2", a strong
// root-cause hypothesis.
//
//	go run ./examples/multidim
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"tiresias"

	"tiresias/internal/multidim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const warm = 96
	delta := 15 * time.Minute
	start := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(19))

	troubles := [][]string{
		{"TV", "NoService"}, {"TV", "Pixelation"},
		{"Internet", "Slow"}, {"Phone", "NoDialTone"},
	}
	paths := [][]string{
		{"vho1", "io1"}, {"vho1", "io2"}, {"vho2", "io1"}, {"vho2", "io2"},
	}

	// Steady background: random (trouble, path) pairs.
	background := func(unit int, n int) []multidim.DimRecord {
		base := start.Add(time.Duration(unit) * delta)
		out := make([]multidim.DimRecord, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, multidim.DimRecord{
				Paths: [][]string{
					troubles[rng.Intn(len(troubles))],
					paths[rng.Intn(len(paths))],
				},
				Time: base.Add(time.Duration(rng.Intn(15)) * time.Minute),
			})
		}
		return out
	}

	opts := func() []tiresias.Option {
		return []tiresias.Option{
			tiresias.WithDelta(delta),
			tiresias.WithWindowLen(warm),
			tiresias.WithTheta(5),
			tiresias.WithSeasonality(1.0, 96),
			tiresias.WithThresholds(tiresias.Thresholds{RT: 2.2, DT: 10}),
		}
	}
	runner, err := multidim.New([]multidim.Dimension{
		{Name: "trouble", Options: opts()},
		{Name: "netpath", Options: opts()},
	})
	if err != nil {
		return err
	}
	var history []multidim.DimRecord
	for u := 0; u < warm; u++ {
		history = append(history, background(u, 20)...)
	}
	if err := runner.Warmup(history); err != nil {
		return err
	}
	fmt.Printf("monitoring dimensions %v over %d warmup units\n", runner.Dimensions(), warm)

	// Live units: quiet, quiet, then an IPTV outage at vho1/io2 (all
	// affected customers call about TV/NoService from that area).
	for u := 0; u < 6; u++ {
		recs := background(warm+u, 20)
		if u == 3 {
			base := start.Add(time.Duration(warm+u) * delta)
			for i := 0; i < 120; i++ {
				recs = append(recs, multidim.DimRecord{
					Paths: [][]string{{"TV", "NoService"}, {"vho1", "io2"}},
					Time:  base,
				})
			}
		}
		inc, err := runner.Step(recs)
		if err != nil {
			return err
		}
		if inc == nil {
			fmt.Printf("unit %d: quiet\n", u)
			continue
		}
		kind := "single-dimension"
		if inc.CrossDimensional() {
			kind = "CROSS-DIMENSIONAL"
		}
		fmt.Printf("unit %d: %s incident with %d anomalies:\n", u, kind, len(inc.Anomalies))
		for _, a := range inc.Anomalies {
			fmt.Printf("    [%s] %s: %.0f vs forecast %.1f\n",
				a.Dimension, a.Anomaly.Key, a.Anomaly.Actual, a.Anomaly.Forecast)
		}
	}
	return nil
}
