package tiresias_test

import (
	"context"
	"fmt"
	"time"

	"tiresias"
)

// Example shows the minimal loop: feed records, let the detector warm
// up on the first window of timeunits, and collect the anomalies of
// every unit after.
func Example() {
	start := time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC)
	var records []tiresias.Record
	calls := func(unit int, path []string, n int) {
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(unit) * 15 * time.Minute)
			records = append(records, tiresias.Record{Path: path, Time: at})
		}
	}
	sf, la := []string{"west", "sf"}, []string{"west", "la"}
	// Steady history: region "west" handles 10 calls per timeunit,
	// then a quiet unit, then an outage burst in SF.
	for unit := 0; unit < 17; unit++ {
		calls(unit, sf, 6)
		calls(unit, la, 4)
	}
	calls(17, sf, 60)
	calls(17, la, 4)

	t, err := tiresias.New(
		tiresias.WithDelta(15*time.Minute),
		tiresias.WithWindowLen(16),
		tiresias.WithTheta(5),
		tiresias.WithSeasonality(1.0, 4),
		tiresias.WithThresholds(tiresias.Thresholds{RT: 2.0, DT: 5}),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := t.Run(context.Background(), tiresias.NewSliceSource(records))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range res.Anomalies {
		fmt.Printf("anomaly at %s: %.0f observed vs %.1f forecast\n", a.Key, a.Actual, a.Forecast)
	}
	// Output:
	// anomaly at west/sf: 60 observed vs 6.0 forecast
}
