package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tiresias/api"
)

// Sending the body that holds a stream's first record of a unit
// closes the unit before it, at that body's send time — across the
// day boundary too — and the first closing wins.
func TestUnitClockClosesThePreviousUnit(t *testing.T) {
	c := newUnitClock(2)
	t1 := time.Unix(100, 0)
	t2 := time.Unix(200, 0)
	t3 := time.Unix(300, 0)

	// Day 0: stream 0 enters units 0 and 1, stream 1 enters unit 5.
	c.close(&body{firsts: []unitRef{{0, 0}, {0, 1}, {1, 5}}}, 0, t1)
	if _, ok := c.closedAt(0, 1); ok {
		t.Error("unit 1 of stream 0 is still open: no record past it was sent")
	}
	if at, ok := c.closedAt(0, 0); !ok || !at.Equal(t1) {
		t.Errorf("stream 0 unit 0 closed at %v %v, want %v", at, ok, t1)
	}
	if at, ok := c.closedAt(1, 4); !ok || !at.Equal(t1) {
		t.Errorf("stream 1 unit 4 closed at %v %v, want %v", at, ok, t1)
	}
	// A later body with the same first does not move the stamp.
	c.close(&body{firsts: []unitRef{{0, 1}}}, 0, t2)
	if at, _ := c.closedAt(0, 0); !at.Equal(t1) {
		t.Errorf("stream 0 unit 0 re-stamped to %v", at)
	}
	// Day 1, unit 0 closes day 0's last unit.
	c.close(&body{firsts: []unitRef{{0, 0}}}, 1, t3)
	if at, ok := c.closedAt(0, unitsPerDay-1); !ok || !at.Equal(t3) {
		t.Errorf("last unit of day 0 closed at %v %v, want %v", at, ok, t3)
	}
	for _, q := range [][2]int{{0, -1}, {5, 0}, {1, 1000}} {
		if _, ok := c.closedAt(q[0], q[1]); ok {
			t.Errorf("closedAt(%d, %d) reported a closed unit", q[0], q[1])
		}
	}
}

// The plan's firsts are what the clock is fed: each (stream, unit)
// appears once per day, in the body holding that unit's first record.
func TestFirstsMarkEachUnitOnce(t *testing.T) {
	p := smallPlan(t, "mixed_fleet", 10)
	for v, l := range p.laps {
		seen := map[unitRef]bool{}
		for _, bodies := range l.bodies {
			for _, b := range bodies {
				for _, f := range b.firsts {
					if seen[f] {
						t.Fatalf("variant %d: unit %+v first seen twice", v, f)
					}
					seen[f] = true
					found := false
					for _, r := range b.recs {
						found = found || (r.stream == f.stream && r.unit() == f.unit)
					}
					if !found {
						t.Fatalf("variant %d: body claims first record of %+v but holds none", v, f)
					}
				}
			}
		}
		// The slowest streams have a few empty units at this scale.
		if all := p.w.streams * unitsPerDay; len(seen) > all || len(seen) < all*9/10 {
			t.Errorf("variant %d: %d (stream, unit) firsts of %d possible", v, len(seen), all)
		}
	}
}

func TestDueAfterFollowsTheRate(t *testing.T) {
	if got := dueAfter(30000, 60000); got != 500*time.Millisecond {
		t.Errorf("record 30000 at 60000/s due after %v, want 500ms", got)
	}
	if got := dueAfter(0, 60000); got != 0 {
		t.Errorf("first record due after %v, want 0", got)
	}
}

// In the open loop a request's latency counts from its due time, so
// a stall is charged to every request it delays, and the schedule —
// not the server — decides how many records are offered.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var recs []api.Record
		if err := json.NewDecoder(r.Body).Decode(&recs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(api.IngestResponse{Accepted: len(recs)})
	}))
	defer srv.Close()

	p := smallPlan(t, "alert_storm", 5)
	lr, err := newLoadRun(p, srv.URL, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.close()
	ln := lr.lanes[0]
	const length = 600 * time.Millisecond
	start := time.Now()
	ln.timed(context.Background(), start, length, 0)

	if ln.failed != 0 || ln.posts < 4 {
		t.Fatalf("%d posts, %d failed", ln.posts, ln.failed)
	}
	if len(ln.late) != ln.posts || len(ln.post) != ln.posts {
		t.Fatalf("%d posts but %d lateness and %d latency samples", ln.posts, len(ln.late), len(ln.post))
	}
	// The schedule, not the stall, decides what is sent: every body
	// due inside the phase, then the rest of that day.
	c := cursor{p: p}
	want, lastDay := 0, -1
	for {
		b, day := c.next()
		if lastDay >= 0 && day != lastDay {
			break
		}
		if lastDay < 0 && dueAfter(c.dayBase+b.before, lr.rate) >= length {
			if c.idx == 1 {
				break
			}
			lastDay = day
		}
		want++
	}
	if ln.posts != want {
		t.Errorf("lane sent %d bodies, the schedule holds %d up to the end of the day %v runs out in", ln.posts, want, length)
	}
	if at := ln.cur; at.idx != 1 {
		t.Errorf("lane stopped at body %d of day %d, want a day boundary", at.idx, at.day)
	}
	// The stalled request, and the one queued behind it, are charged
	// from their due times.
	if got := ln.post[2]; got < ms(stall) {
		t.Errorf("stalled request latency %.1fms, want at least %v", got, stall)
	}
	gap := dueAfter(len(p.laps[0].bodies[0][0].recs)*p.w.streams, lr.rate)
	if next := ln.post[3]; next < ms(stall-gap)-5 {
		t.Errorf("request behind the stall: latency %.1fms, want about %v (stall minus the %v between due times)", next, stall-gap, gap)
	}
	if ln.late[3] < ms(stall-gap)-5 {
		t.Errorf("request behind the stall sent %.1fms late, want about %v", ln.late[3], stall-gap)
	}
}
