package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/gen"
)

// A lap is one day of event time for every stream. Generating and
// encoding records costs more than the server spends on them, so a
// plan pre-encodes lapVariants days once and replays them in seeded
// order for as many days as the run lasts, rewriting only the date of
// each record. Variants come from one continuous generated span, so
// leaf popularity is the same every day while the Poisson draws and
// the burst units differ; exact daily repetition, which the seasonal
// forecaster would learn, is avoided.

// rec is one generated record of a lap. It holds no pointer, so the
// collector never scans the millions of them a plan keeps.
type rec struct {
	stream int32
	leaf   int32 // index into plan.leaves
	sec    int32 // offset into the day, whole seconds
}

func (r rec) off() time.Duration { return time.Duration(r.sec) * time.Second }

// unit is the record's unit of the day.
func (r rec) unit() int32 { return r.sec / int32(delta/time.Second) }

// unitRef names a stream's unit within a lap day.
type unitRef struct{ stream, unit int32 }

// body is one POST: its records, their encoding, and what sending it
// means for the bookkeeping.
type body struct {
	recs []rec
	// ndjson is the encoded NDJSON body and dateAt the offset of each
	// line's 10 date bytes; wire is the JSON-array form instead.
	ndjson []byte
	dateAt []int32
	wire   []api.Record
	// firsts lists the (stream, unit) pairs whose first record is in
	// this body: sending it closes the stream's previous unit.
	firsts []unitRef
	// groups counts the consecutive same-stream runs, the unit the
	// server feeds or enqueues.
	groups int
	// before counts the lap's records (all lanes) in bodies ordered
	// ahead of this one: its place on the open loop's schedule.
	before int
}

// lap is one pre-encoded day: per lane, the bodies in send order.
type lap struct {
	bodies  [][]*body
	records int
}

// plan is a workload's generated input for one seed.
type plan struct {
	w      *workload
	seed   int64
	names  []string   // stream names
	leaves [][]string // the shape's leaf paths
	// census, on workloads that have one, is day 0: a normal day plus
	// about three records on every leaf, so each stream's tree is at
	// its full size before the clock starts and stays there.
	census  *lap
	laps    []lap
	order   []int // lap variant per replayed day, reused cyclically
	genS    float64
	encodeS float64
}

// streamRates shares the workload's rate out over its streams.
func (w *workload) streamRates(scale float64) []float64 {
	rates := make([]float64, w.streams)
	var total float64
	for i := range rates {
		rates[i] = 1
		if w.zipf {
			rates[i] = 1 / float64(i+1)
		}
		total += rates[i]
	}
	for i := range rates {
		// Below two records per unit a stream has empty units and no
		// node ever reaches theta; scaled-down runs stop there.
		rates[i] = max(2, rates[i]/total*w.rate/scale)
	}
	return rates
}

// burstSpecs places the workload's 2-unit, 3x-rate bursts on depth-2
// nodes, per stream, over the days from first on.
func (w *workload) burstSpecs(rng *rand.Rand, leaves [][]string, rates []float64, first, days int) [][]gen.AnomalySpec {
	specs := make([][]gen.AnomalySpec, w.streams)
	units := (first + days) * unitsPerDay
	add := func(s, start int) {
		leaf := leaves[rng.Intn(len(leaves))]
		specs[s] = append(specs[s], gen.AnomalySpec{
			Path:         leaf[:2],
			StartUnit:    start,
			EndUnit:      min(start+2, units),
			ExtraPerUnit: 3 * rates[s],
		})
	}
	if w.burstEveryUnit {
		for u := first * unitsPerDay; u < units; u++ {
			add(rng.Intn(w.streams), u)
		}
		return specs
	}
	for s := 0; s < w.streams; s++ {
		for d := first; d < first+days; d++ {
			for i := 0; i < w.bursts; i++ {
				add(s, d*unitsPerDay+rng.Intn(unitsPerDay-1))
			}
		}
	}
	return specs
}

// newPlan generates and encodes the workload's laps. scale divides
// the record rates (1 for real runs; the smoke test shrinks them).
func newPlan(w *workload, seed int64, scale float64) (*plan, error) {
	p := &plan{w: w, seed: seed, laps: make([]lap, lapVariants)}
	rng := gen.NewRand(seed)
	p.order = make([]int, 1<<12)
	for i := range p.order {
		p.order[i] = rng.Intn(lapVariants)
	}
	for s := 0; s < w.streams; s++ {
		p.names = append(p.names, fmt.Sprintf("s%03d", s))
	}

	begin := time.Now()
	rates := w.streamRates(scale)
	p.leaves = w.shape.Leaves()
	leaves := p.leaves
	// One continuous generated span per stream: the census day, if
	// any, then the variants.
	first := 0
	if w.census {
		first = 1
	}
	days := first + lapVariants
	specs := w.burstSpecs(rng, leaves, rates, first, lapVariants)
	lanes := w.lanes()
	// byLane[day][lane] collects the lane's records, each stream's in
	// time order.
	byLane := make([][][]rec, days)
	for d := range byLane {
		byLane[d] = make([][]rec, lanes)
	}
	for s := 0; s < w.streams; s++ {
		if w.census {
			// The root covers every leaf, and injected records spread
			// evenly over the leaves under their node.
			specs[s] = append(specs[s], gen.AnomalySpec{
				EndUnit:      unitsPerDay,
				ExtraPerUnit: 3 * float64(len(leaves)) / float64(unitsPerDay),
			})
		}
		ds, err := gen.Generate(gen.Config{
			Shape:           w.shape,
			Start:           day0,
			Units:           days * unitsPerDay,
			Delta:           delta,
			BaseRate:        rates[s],
			DiurnalStrength: 0.3,
			ZipfS:           1,
			Anomalies:       specs[s],
			Seed:            seed*1000 + int64(s) + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.names[s], err)
		}
		// Every record's path is one of the dataset's leaf slices,
		// enumerated in the shape's order.
		leafOf := make(map[*string]int32, len(ds.Leaves))
		for i, leaf := range ds.Leaves {
			leafOf[&leaf[0]] = int32(i)
		}
		for _, r := range ds.Records {
			since := r.Time.Sub(day0)
			d := int(since / (24 * time.Hour))
			off := since - time.Duration(d)*24*time.Hour
			byLane[d][s%lanes] = append(byLane[d][s%lanes], rec{
				stream: int32(s),
				leaf:   leafOf[&r.Path[0]],
				sec:    int32(off / time.Second),
			})
		}
	}
	p.genS = time.Since(begin).Seconds()

	begin = time.Now()
	if w.census {
		l := p.buildLap(byLane[0])
		p.census = &l
	}
	for v := range p.laps {
		p.laps[v] = p.buildLap(byLane[first+v])
	}
	p.encodeS = time.Since(begin).Seconds()
	return p, nil
}

// byOffset orders a lane's records by time and keeps each stream's
// own order. Offsets are whole seconds of one day, so one counting
// pass does it; a comparison sort here was half the set-up time.
func byOffset(recs []rec) []rec {
	var start [24*3600 + 1]int32
	for _, r := range recs {
		start[r.sec+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	out := make([]rec, len(recs))
	for _, r := range recs {
		at := &start[r.sec]
		out[*at] = r
		*at++
	}
	return out
}

// buildLap cuts each lane's records into bodies, encodes them, and
// derives the bookkeeping fields.
func (p *plan) buildLap(laneRecs [][]rec) lap {
	w := p.w
	l := lap{bodies: make([][]*body, len(laneRecs))}
	var all []*body
	for lane, recs := range laneRecs {
		l.records += len(recs)
		var bodies []*body
		chunk := func(rs []rec) {
			for len(rs) > 0 {
				n := min(w.bodyRecords, len(rs))
				bodies = append(bodies, &body{recs: rs[:n:n]})
				rs = rs[n:]
			}
		}
		if w.merged {
			// Streams were appended one after another.
			chunk(byOffset(recs))
		} else {
			for lo := 0; lo < len(recs); {
				hi := lo
				for hi < len(recs) && recs[hi].stream == recs[lo].stream {
					hi++
				}
				chunk(recs[lo:hi])
				lo = hi
			}
			sort.SliceStable(bodies, func(i, j int) bool { return bodies[i].recs[0].sec < bodies[j].recs[0].sec })
		}
		last := map[int32]int32{}
		for _, b := range bodies {
			for i, r := range b.recs {
				if u, seen := last[r.stream]; !seen || u != r.unit() {
					b.firsts = append(b.firsts, unitRef{r.stream, r.unit()})
					last[r.stream] = r.unit()
				}
				if i == 0 || b.recs[i-1].stream != r.stream {
					b.groups++
				}
			}
			p.encode(b)
		}
		l.bodies[lane] = bodies
		all = append(all, bodies...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].recs[0].sec < all[j].recs[0].sec })
	before := 0
	for _, b := range all {
		b.before = before
		before += len(b.recs)
	}
	return l
}

// datePlaceholder holds the place of the 10 date bytes setDay
// rewrites.
const datePlaceholder = "0000-00-00"

// encode fills the body's wire form with a placeholder date.
func (p *plan) encode(b *body) {
	if p.w.array {
		b.wire = make([]api.Record, len(b.recs))
		for i, r := range b.recs {
			b.wire[i] = api.Record{Stream: p.names[r.stream], Path: p.leaves[r.leaf]}
		}
		return
	}
	b.dateAt = make([]int32, len(b.recs))
	buf := make([]byte, 0, 96*len(b.recs))
	for i, r := range b.recs {
		buf = append(buf, `{"stream":"`...)
		buf = append(buf, p.names[r.stream]...)
		buf = append(buf, `","path":[`...)
		for j, c := range p.leaves[r.leaf] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, c)
		}
		buf = append(buf, `],"time":"`...)
		b.dateAt[i] = int32(len(buf))
		buf = append(buf, datePlaceholder...)
		buf = time.Time{}.Add(r.off()).AppendFormat(buf, "T15:04:05Z")
		buf = append(buf, "\"}\n"...)
	}
	b.ndjson = buf
}

// dayStart returns the first instant of a replayed day.
func dayStart(day int) time.Time { return day0.AddDate(0, 0, day) }

// setDay rewrites the body's dates for a replayed day. The body must
// not be in flight.
func (b *body) setDay(day int) {
	start := dayStart(day)
	if b.wire != nil {
		for i := range b.wire {
			b.wire[i].Time = start.Add(b.recs[i].off())
		}
		return
	}
	var date [len(datePlaceholder)]byte
	start.AppendFormat(date[:0], "2006-01-02")
	for _, at := range b.dateAt {
		copy(b.ndjson[at:], date[:])
	}
}

// record returns a record as the detector sees it on a replayed day.
func (p *plan) record(r rec, day int) tiresias.Record {
	return tiresias.Record{Path: p.leaves[r.leaf], Time: dayStart(day).Add(r.off())}
}

// cursor walks one lane's bodies day after day.
type cursor struct {
	p    *plan
	lane int
	day  int
	idx  int
	// dayBase counts the records (all lanes) of the days before day.
	dayBase int
}

func (p *plan) lapOf(day int) *lap {
	if day == 0 && p.census != nil {
		return p.census
	}
	return &p.laps[p.order[day%len(p.order)]]
}

// next returns the lane's next body and the day it belongs to.
func (c *cursor) next() (*body, int) {
	for {
		l := c.p.lapOf(c.day)
		if bodies := l.bodies[c.lane]; c.idx < len(bodies) {
			b := bodies[c.idx]
			c.idx++
			return b, c.day
		}
		c.dayBase += l.records
		c.day++
		c.idx = 0
	}
}

// warmBodies counts the lane's leading bodies that start inside the
// warm-up span; every stream of the lane is warm and stepping once
// they are sent.
func (p *plan) warmBodies(lane int) int {
	c := cursor{p: p, lane: lane}
	for n := 0; ; n++ {
		b, day := c.next()
		if day*unitsPerDay+int(b.recs[0].unit()) >= p.w.warm {
			return n
		}
	}
}

// streamRecords regenerates the first n bodies' records of one stream
// in send order: the reference detector's input.
func (p *plan) streamRecords(stream, n int) []tiresias.Record {
	c := cursor{p: p, lane: stream % p.w.lanes()}
	var out []tiresias.Record
	for ; n > 0; n-- {
		b, day := c.next()
		for _, r := range b.recs {
			if int(r.stream) == stream {
				out = append(out, p.record(r, day))
			}
		}
	}
	return out
}
