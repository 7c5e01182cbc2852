package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/client"
)

// seqHeader carries a body's sequence number to the traced server, so
// spans of one request share an identifier.
const seqHeader = "X-Bench-Seq"

// unitClock remembers when each stream's units were closed in the
// timed phase: the send (in the open loop, due) time of the body
// holding the first record past the unit. An anomaly entry for that
// unit cannot exist earlier, so receipt minus this time is the
// record-to-anomaly latency. Units closed during warm-up stay open
// here, so their entries are not timed.
type unitClock struct {
	mu   sync.Mutex
	sent [][]int64 // [stream][absolute unit] → unix nanoseconds, 0 = open
}

func newUnitClock(streams int) *unitClock {
	return &unitClock{sent: make([][]int64, streams)}
}

// close stamps the units that body b, sent for the given day at time
// at, closes: for each stream whose first record of a unit it holds,
// the unit before.
func (c *unitClock) close(b *body, day int, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range b.firsts {
		abs := day*unitsPerDay + int(f.unit) - 1
		if abs < 0 {
			continue
		}
		s := c.sent[f.stream]
		for len(s) <= abs {
			s = append(s, 0)
		}
		if s[abs] == 0 {
			s[abs] = at.UnixNano()
		}
		c.sent[f.stream] = s
	}
}

// closedAt returns when the stream's unit was closed.
func (c *unitClock) closedAt(stream, abs int) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stream < 0 || stream >= len(c.sent) || abs < 0 || abs >= len(c.sent[stream]) || c.sent[stream][abs] == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, c.sent[stream][abs]), true
}

// countingTransport counts HTTP requests, so retries (requests beyond
// the calls made) are visible without the client exposing them.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
	// seq, when non-nil, is sent as seqHeader.
	seq *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	if t.seq != nil {
		r = r.Clone(r.Context())
		r.Header.Set(seqHeader, strconv.FormatInt(t.seq.Load(), 10))
	}
	return t.base.RoundTrip(r)
}

func newTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

func (t *countingTransport) close() { t.base.(*http.Transport).CloseIdleConnections() }

// lane is one sending goroutine with its own connection and streams.
type lane struct {
	run *loadRun
	id  int
	cur cursor
	tr  *countingTransport
	c   *client.Client
	seq atomic.Int64 // sequence number of the body in flight

	sent    int // bodies sent, warm-up included
	posts   int // timed-phase POSTs
	failed  int
	records int       // timed-phase records accepted
	groups  int       // timed-phase same-stream groups
	post    []float64 // ms
	late    []float64 // ms the open loop sent after the due time
}

// send posts one body and returns the records the server accepted.
func (ln *lane) send(ctx context.Context, b *body) (int, error) {
	var resp *api.IngestResponse
	var err error
	if b.wire != nil {
		resp, err = ln.c.IngestBatch(ctx, b.wire)
	} else {
		resp, err = ln.c.IngestNDJSON(ctx, bytes.NewReader(b.ndjson))
	}
	if err != nil {
		return 0, err
	}
	if resp.Accepted != len(b.recs) {
		return resp.Accepted, fmt.Errorf("accepted %d of %d records", resp.Accepted, len(b.recs))
	}
	return resp.Accepted, nil
}

// warm sends the lane's warm-up bodies back to back, unrecorded.
func (ln *lane) warm(ctx context.Context) error {
	for n := ln.run.p.warmBodies(ln.id); ln.sent < n; ln.sent++ {
		b, day := ln.cur.next()
		b.setDay(day)
		if _, err := ln.send(ctx, b); err != nil {
			return fmt.Errorf("warm-up body %d of lane %d: %w", ln.sent, ln.id, err)
		}
	}
	return nil
}

// timed sends bodies until the phase has lasted its length, then to
// the end of the day it is in: every run stops at the same time of
// day, so the state a checkpoint sees does not depend on the diurnal
// phase the clock happened to run out in. In the closed loop the next
// body follows the previous reply; in the open loop every body has a
// due time fixed by the rate and its place in the replay, and its
// latency counts from then, so a stall is charged to every request it
// delays.
func (ln *lane) timed(ctx context.Context, start time.Time, length time.Duration, origin int) {
	rate := ln.run.rate
	lastDay := -1 // the day being finished once time is up
	for ctx.Err() == nil {
		b, day := ln.cur.next()
		if lastDay >= 0 && day != lastDay {
			return
		}
		from := time.Now()
		if rate > 0 {
			from = start.Add(dueAfter(ln.cur.dayBase+b.before-origin, rate))
		}
		if lastDay < 0 && from.Sub(start) >= length {
			if ln.cur.idx == 1 {
				return // b opens a day: the one before is complete
			}
			lastDay = day
		}
		if rate > 0 {
			if wait := time.Until(from); wait > 0 {
				time.Sleep(wait)
			}
			ln.late = append(ln.late, ms(time.Since(from)))
		}
		b.setDay(day)
		ln.run.clock.close(b, day, from)
		seq := ln.run.nextSeq.Add(1)
		ln.seq.Store(seq)
		var span int
		if ln.run.tr != nil {
			span = ln.run.tr.begin("client.ingest", 0, seq)
		}
		n, err := ln.send(ctx, b)
		if ln.run.tr != nil {
			ln.run.tr.end(span)
		}
		ln.post = append(ln.post, ms(time.Since(from)))
		ln.sent++
		ln.posts++
		ln.records += n
		ln.groups += b.groups
		if err != nil {
			ln.failed++
			logf("lane %d body %d: %v", ln.id, ln.sent, err)
		}
	}
}

// backlog is how late, in ms, the lane was sending at the end: the
// median over the last quarter of its sends. A server that keeps up
// leaves it near zero whatever stalls there were; one that does not
// makes it grow for as long as the run lasts.
func (ln *lane) backlog() float64 {
	tail := append([]float64(nil), ln.late[len(ln.late)*3/4:]...)
	return median(tail)
}

// dueAfter is the open loop's schedule: the offset from the phase
// start at which the record at position pos is due.
func dueAfter(pos int, rate float64) time.Duration {
	return time.Duration(float64(pos) / rate * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// watcher follows GET /v2/anomalies/watch. Watcher 0 keeps what the
// output check and the detection latency need; the others only count.
type watcher struct {
	run     *loadRun
	id      int
	w       *client.Watcher
	count   atomic.Int64
	mu      sync.Mutex
	entries []tiresias.AnomalyEntry // stream 0's, in arrival order
	detect  []float64               // ms, first entry per closed unit
	seen    map[[2]int]bool
}

func (wt *watcher) loop() {
	for wt.w.Next() {
		now := time.Now()
		e := wt.w.Entry()
		wt.count.Add(1)
		if wt.id != 0 {
			continue
		}
		stream, err := strconv.Atoi(e.Stream[1:])
		if err != nil {
			continue
		}
		abs := int(e.Time.Sub(day0) / delta)
		wt.mu.Lock()
		if stream == 0 {
			wt.entries = append(wt.entries, e)
		}
		key := [2]int{stream, abs}
		closed, ok := wt.run.clock.closedAt(stream, abs)
		if ok && !wt.seen[key] {
			wt.seen[key] = true
			wt.detect = append(wt.detect, ms(now.Sub(closed)))
			if tr := wt.run.tr; tr != nil {
				tr.add(span{Name: "client.watch", Unit: abs, Start: tr.at(closed), End: tr.at(now)})
			}
		}
		wt.mu.Unlock()
	}
}

// reader is a side activity beside ingest — pager, scraper, stats
// sampler — with its own latency samples and failure count.
type reader struct {
	calls, failed int
	ms            []float64
}

// timeCall runs and times one call. A call cut short by ctx ending
// is neither an attempt nor a failure.
func (r *reader) timeCall(ctx context.Context, f func() error) error {
	begin := time.Now()
	err := f()
	if err != nil && ctx.Err() != nil {
		return err
	}
	r.calls++
	if err != nil {
		r.failed++
		return err
	}
	r.ms = append(r.ms, ms(time.Since(begin)))
	return nil
}

// loadRun drives one plan against one server, child process or
// in-process alike.
type loadRun struct {
	p     *plan
	base  string
	rate  float64 // open-loop records/s, 0 = closed loop
	lanes []*lane
	clock *unitClock
	tr    *tracer // spans on when non-nil

	nextSeq atomic.Int64

	side     *client.Client // watchers, readers, stats
	sideTr   *countingTransport
	watchers []*watcher
	stopSide context.CancelFunc
	sideWG   sync.WaitGroup

	pager   reader
	cursor  string // pager position
	paged   int    // entries the pager has walked
	scraper reader
	metrics string // last /metrics body
	depths  []float64
}

func newLoadRun(p *plan, base string, scale float64, tr *tracer) (*loadRun, error) {
	lr := &loadRun{p: p, base: base, rate: p.w.openRate / scale, clock: newUnitClock(p.w.streams), tr: tr}
	for i := 0; i < p.w.lanes(); i++ {
		ln := &lane{run: lr, id: i, cur: cursor{p: p, lane: i}, tr: newTransport()}
		if tr != nil {
			ln.tr.seq = &ln.seq
		}
		c, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: ln.tr}))
		if err != nil {
			return nil, err
		}
		ln.c = c
		lr.lanes = append(lr.lanes, ln)
	}
	lr.sideTr = newTransport()
	c, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: lr.sideTr}))
	if err != nil {
		return nil, err
	}
	lr.side = c
	return lr, nil
}

// startWatchers attaches the workload's watchers from the start of
// the index.
func (lr *loadRun) startWatchers(ctx context.Context) {
	ctx, lr.stopSide = context.WithCancel(ctx)
	for i := 0; i < lr.p.w.watchers; i++ {
		wt := &watcher{run: lr, id: i, w: lr.side.Watch(ctx, client.AnomalyQuery{}), seen: map[[2]int]bool{}}
		lr.watchers = append(lr.watchers, wt)
		lr.sideWG.Add(1)
		go func() {
			defer lr.sideWG.Done()
			wt.loop()
		}()
	}
}

// warm runs every lane's warm-up and waits until the server has
// detected all of it.
func (lr *loadRun) warm(ctx context.Context) error {
	errs := make(chan error, len(lr.lanes)) // one send per lane
	for _, ln := range lr.lanes {
		go func() { errs <- ln.warm(ctx) }()
	}
	var first error
	for range lr.lanes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return lr.drained(ctx)
}

// drained polls /v2/stats until every accepted record has been
// through detection.
func (lr *loadRun) drained(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := lr.side.Stats(ctx)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		if st.Manager.Records+st.Manager.Failed+st.Manager.Dropped >= st.Ingest.Records {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still behind after 60s: %d of %d records detected", st.Manager.Records, st.Ingest.Records)
		}
		time.Sleep(time.Millisecond)
	}
}

// timed runs the measured phase: all lanes for length, the workload's
// readers beside them, then the drain — so queued work is inside the
// clock. It returns the phase's wall time.
func (lr *loadRun) timed(ctx context.Context, length time.Duration) (time.Duration, error) {
	// The open loop's schedule starts at the earliest first body.
	origin := -1
	for _, ln := range lr.lanes {
		c := ln.cur
		b, _ := c.next()
		if pos := c.dayBase + b.before; origin < 0 || pos < origin {
			origin = pos
		}
	}
	rctx, stopReaders := context.WithCancel(ctx)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		lr.sample(rctx)
	}()
	if lr.p.w.readers {
		readers.Add(2)
		go func() {
			defer readers.Done()
			lr.page(rctx, false)
		}()
		go func() {
			defer readers.Done()
			lr.scrapeEvery(rctx)
		}()
	}

	start := time.Now()
	var lanes sync.WaitGroup
	for _, ln := range lr.lanes {
		lanes.Add(1)
		go func() {
			defer lanes.Done()
			ln.timed(ctx, start, length, origin)
		}()
	}
	lanes.Wait()
	err := lr.drained(ctx)
	wall := time.Since(start)
	stopReaders()
	readers.Wait()
	return wall, err
}

// sample polls /v2/stats for the queue depths while the phase runs.
func (lr *loadRun) sample(ctx context.Context) {
	every := time.NewTicker(statsEvery)
	defer every.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-every.C:
		}
		st, err := lr.side.Stats(ctx)
		if err != nil {
			continue
		}
		var depth float64
		for _, sh := range st.Manager.Shards {
			if sh.Pipeline != nil {
				depth += float64(sh.Pipeline.QueueDepth)
			}
		}
		lr.depths = append(lr.depths, depth)
	}
}

// page walks GET /v2/anomalies from the pager's cursor. While the
// phase runs it idles at the end of the index and resumes; with
// toEnd it returns once the walk has caught up.
func (lr *loadRun) page(ctx context.Context, toEnd bool) {
	for ctx.Err() == nil {
		var pg *api.AnomaliesPage
		err := lr.pager.timeCall(ctx, func() (err error) {
			pg, err = lr.side.Page(ctx, client.AnomalyQuery{Cursor: lr.cursor, PageSize: pageSize})
			return err
		})
		if err != nil {
			return
		}
		lr.paged += len(pg.Entries)
		lr.cursor = pg.Cursor
		if pg.NextCursor != "" {
			continue
		}
		if toEnd {
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(pagerIdle):
		}
	}
}

// scrape fetches /metrics once.
func (lr *loadRun) scrape(ctx context.Context) error {
	return lr.scraper.timeCall(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, lr.base+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := lr.sideTr.RoundTrip(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/metrics: %s", resp.Status)
		}
		lr.metrics = string(raw)
		return nil
	})
}

func (lr *loadRun) scrapeEvery(ctx context.Context) {
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		_ = lr.scrape(ctx) // a failed scrape is counted by the reader
	}
}

// awaitEntries waits until watcher 0 has received n entries.
func (lr *loadRun) awaitEntries(ctx context.Context, n int64) int64 {
	deadline := time.Now().Add(10 * time.Second)
	for lr.watchers[0].count.Load() < n && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	return lr.watchers[0].count.Load()
}

// close detaches the watchers and drops the connections.
func (lr *loadRun) close() {
	if lr.stopSide != nil {
		lr.stopSide()
		lr.sideWG.Wait()
	}
	for _, ln := range lr.lanes {
		ln.tr.close()
	}
	lr.sideTr.close()
}

// totals sums the lanes' timed-phase counters and sorts the pooled
// latencies.
type laneTotals struct {
	posts, failed, records, groups, retries int
	post, late                              []float64
}

func (lr *loadRun) totals() laneTotals {
	var t laneTotals
	for _, ln := range lr.lanes {
		t.posts += ln.posts
		t.failed += ln.failed
		t.records += ln.records
		t.groups += ln.groups
		t.retries += int(ln.tr.n.Load()) - ln.sent
		t.post = append(t.post, ln.post...)
		t.late = append(t.late, ln.late...)
	}
	sort.Float64s(t.post)
	sort.Float64s(t.late)
	return t
}
