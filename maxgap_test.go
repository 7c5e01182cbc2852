package tiresias

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestDefaultMaxGapIsTheDefault ties the exported constant to the
// bound of the default detector, which checkpoint.DefaultConfig spells.
func TestDefaultMaxGapIsTheDefault(t *testing.T) {
	if got := defaultOptions().MaxGap; got != DefaultMaxGap {
		t.Fatalf("default MaxGap = %d, DefaultMaxGap = %d", got, DefaultMaxGap)
	}
}

// TestRunMaxGapBound checks the gap bound is enforced on the public
// Run path: one far-future timestamp aborts the run with a descriptive
// error instead of fabricating an unbounded string of empty units.
func TestRunMaxGapBound(t *testing.T) {
	tr, err := New(
		WithDelta(time.Minute),
		WithWindowLen(4),
		WithTheta(0.5),
		WithSeasonality(1.0, 2),
		WithMaxGap(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2012, 6, 18, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		{Path: []string{"p"}, Time: base},
		{Path: []string{"p"}, Time: base.Add(1 * time.Minute)},
		{Path: []string{"p"}, Time: base.Add(500 * time.Minute)}, // > 10-unit gap
	}
	_, err = tr.Run(context.Background(), NewSliceSource(recs))
	if err == nil {
		t.Fatal("Run must reject a record past the MaxGap bound")
	}
	if !strings.Contains(err.Error(), "timeunits past") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

// TestRunMaxGapDefaultAllowsNormalGaps checks the default bound does
// not interfere with ordinary quiet periods.
func TestRunMaxGapDefaultAllowsNormalGaps(t *testing.T) {
	tr, err := New(
		WithDelta(time.Minute),
		WithWindowLen(4),
		WithTheta(0.5),
		WithSeasonality(1.0, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2012, 6, 18, 0, 0, 0, 0, time.UTC)
	var recs []Record
	for i := 0; i < 8; i++ {
		recs = append(recs, Record{Path: []string{"p"}, Time: base.Add(time.Duration(i) * time.Minute)})
	}
	// A one-hour quiet period, well under DefaultMaxGap.
	recs = append(recs, Record{Path: []string{"p"}, Time: base.Add(68 * time.Minute)})
	res, err := tr.Run(context.Background(), NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units == 0 {
		t.Fatal("run processed no units")
	}
}
