package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"tiresias/api"
	"tiresias/internal/gen"
)

// smallPlan is a plan of the named workload with its rates divided by
// scale.
func smallPlan(t *testing.T, name string, scale float64) *plan {
	t.Helper()
	p, err := newPlan(findWorkload(name), 7, scale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// decode reads a body's wire form back as the server would.
func decode(t *testing.T, b *body) []api.Record {
	t.Helper()
	if b.wire != nil {
		return b.wire
	}
	var out []api.Record
	for _, line := range bytes.Split(bytes.TrimSpace(b.ndjson), []byte("\n")) {
		var r api.Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("body line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// Replaying a lap rewrites the dates and nothing else: what is on the
// wire for a day equals the records the reference detector is given,
// and every stream's records stay in time order across days.
func TestReplayRewritesDatesAndKeepsOrder(t *testing.T) {
	for _, name := range []string{"dense_ingest", "mixed_fleet", "alert_storm"} {
		p := smallPlan(t, name, 50)
		last := make([]time.Time, p.w.streams)
		for lane := 0; lane < p.w.lanes(); lane++ {
			c := cursor{p: p, lane: lane}
			for c.day < 3 {
				b, day := c.next()
				b.setDay(day)
				wire := decode(t, b)
				if len(wire) != len(b.recs) {
					t.Fatalf("%s: body has %d records on the wire, %d generated", name, len(wire), len(b.recs))
				}
				for i, r := range b.recs {
					want := p.record(r, day)
					got := wire[i]
					if got.Stream != p.names[r.stream] || !got.Time.Equal(want.Time) {
						t.Fatalf("%s day %d record %d: wire %+v, want stream %s at %v", name, day, i, got, p.names[r.stream], want.Time)
					}
					if !slices.Equal(got.Path, want.Path) {
						t.Fatalf("%s: wire path %v, want %v", name, got.Path, want.Path)
					}
					if d := int(got.Time.Sub(day0) / (24 * time.Hour)); d != day {
						t.Fatalf("%s: record dated day %d while replaying day %d", name, d, day)
					}
					if got.Time.Before(last[r.stream]) {
						t.Fatalf("%s: stream %d goes back in time: %v after %v", name, r.stream, got.Time, last[r.stream])
					}
					last[r.stream] = got.Time
				}
			}
		}
	}
}

// The same body replayed on another day differs only in its dates.
func TestSetDayTouchesOnlyTheDate(t *testing.T) {
	p := smallPlan(t, "dense_ingest", 50)
	b := p.laps[0].bodies[0][0]
	b.setDay(1)
	one := append([]byte(nil), b.ndjson...)
	b.setDay(12)
	if len(one) != len(b.ndjson) {
		t.Fatal("body length changed")
	}
	diff := 0
	for i := range one {
		if one[i] != b.ndjson[i] {
			diff++
		}
	}
	// 2010-09-14 → 2010-09-25: two digits per record.
	if want := 2 * len(b.recs); diff != want {
		t.Errorf("%d bytes differ between days, want %d", diff, want)
	}
}

// Lap variants are different days: the bursts start in different
// units, so replay never repeats one day exactly.
func TestBurstUnitsDifferByDay(t *testing.T) {
	w := findWorkload("dense_ingest")
	specs := w.burstSpecs(gen.NewRand(3), w.shape.Leaves(), w.streamRates(1), 0, lapVariants)
	for s, ss := range specs {
		perDay := map[int][]int{}
		for _, a := range ss {
			if a.EndUnit-a.StartUnit != 2 || len(a.Path) != 2 || a.ExtraPerUnit != 3*w.streamRates(1)[s] {
				t.Fatalf("burst %+v is not 2 units at 3x rate on a depth-2 node", a)
			}
			d := a.StartUnit / unitsPerDay
			perDay[d] = append(perDay[d], a.StartUnit%unitsPerDay)
		}
		if len(perDay) != lapVariants {
			t.Fatalf("stream %d has bursts on %d days, want %d", s, len(perDay), lapVariants)
		}
		for d := 1; d < lapVariants; d++ {
			if len(perDay[d]) != w.bursts {
				t.Errorf("stream %d day %d has %d bursts, want %d", s, d, len(perDay[d]), w.bursts)
			}
			same := true
			for i := range perDay[d] {
				same = same && perDay[d][i] == perDay[0][i]
			}
			if same {
				t.Errorf("stream %d: day %d repeats day 0's burst units %v", s, d, perDay[0])
			}
		}
	}
}

// The census day puts every stream's tree at full size.
func TestCensusTouchesEveryLeaf(t *testing.T) {
	p := smallPlan(t, "wide_tree", 50)
	if p.census == nil {
		t.Fatal("wide_tree has no census day")
	}
	seen := make([]map[int32]bool, p.w.streams)
	for i := range seen {
		seen[i] = map[int32]bool{}
	}
	for _, bodies := range p.census.bodies {
		for _, b := range bodies {
			for _, r := range b.recs {
				seen[r.stream][r.leaf] = true
			}
		}
	}
	for s, m := range seen {
		if share := float64(len(m)) / float64(len(p.leaves)); share < 0.9 {
			t.Errorf("stream %d: census touches %.0f%% of the leaves, want at least 90%%", s, 100*share)
		}
	}
	c := cursor{p: p}
	if _, day := c.next(); day != 0 || p.lapOf(0) != p.census || p.lapOf(1) == p.census {
		t.Error("the census is not exactly day 0")
	}
}

func TestByOffsetIsStable(t *testing.T) {
	in := []rec{{stream: 0, sec: 5, leaf: 1}, {stream: 0, sec: 9, leaf: 2}, {stream: 1, sec: 5, leaf: 3}, {stream: 1, sec: 7, leaf: 4}}
	got := byOffset(in)
	want := []int32{1, 3, 4, 2}
	for i, r := range got {
		if r.leaf != want[i] {
			t.Fatalf("byOffset order %v, want leaves %v", got, want)
		}
	}
}

// Warm-up ends once every stream is past its window.
func TestWarmBodiesCoverTheWindow(t *testing.T) {
	for _, w := range workloads {
		p := smallPlan(t, w.name, 50)
		for lane := 0; lane < w.lanes(); lane++ {
			n := p.warmBodies(lane)
			lastUnit := map[int32]int{}
			c := cursor{p: p, lane: lane}
			for i := 0; i < n; i++ {
				b, day := c.next()
				for _, r := range b.recs {
					lastUnit[r.stream] = day*unitsPerDay + int(r.unit())
				}
			}
			for s, u := range lastUnit {
				if u < w.window+1 {
					t.Errorf("%s lane %d: stream %d only reached unit %d in warm-up, window is %d", w.name, lane, s, u, w.window)
				}
			}
		}
	}
}
