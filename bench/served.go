package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiresias"
	"tiresias/api"
)

// servedResult is what one clean run against the child server
// measured.
type servedResult struct {
	// e2e holds every end-to-end metric, layer the layer metrics read
	// from the same run's public surfaces at no extra cost.
	e2e, layer map[string]float64
	// attempted and failed count operations: POSTs, pages, scrapes,
	// expected watch entries, checkpoints and the checks themselves.
	attempted, failed int
	correct           bool
	// info states sample counts and the sizes the run reached.
	info map[string]any
	// plan is the generated input, kept for the traced run.
	plan *plan
}

// setup is one booted, warmed server with its load driver.
type setup struct {
	p    *plan
	dir  string
	srv  *server
	lr   *loadRun
	took time.Duration
}

// setUp generates the plan, boots the server and warms it up: the
// work setup_s measures (the build is not in it; it is compile time,
// paid once per checkout).
func setUp(ctx context.Context, root, bin string, w *workload, seed int64, scale float64) (*setup, error) {
	begin := time.Now()
	p, err := newPlan(w, seed, scale)
	if err != nil {
		return nil, err
	}
	dir, err := newRunDir(root)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, bin, w, dir, false)
	if err != nil {
		return nil, err
	}
	lr, err := newLoadRun(p, srv.base, scale, nil)
	if err != nil {
		srv.kill()
		return nil, err
	}
	lr.startWatchers(ctx)
	if err := lr.warm(ctx); err != nil {
		lr.close()
		srv.kill()
		return nil, err
	}
	took := time.Since(begin)
	logf("%s: set up in %.2fs (generate %.2fs, encode %.2fs)", w.name, took.Seconds(), p.genS, p.encodeS)
	return &setup{p: p, dir: dir, srv: srv, lr: lr, took: took}, nil
}

// discard drops a set-up that was only made to be timed.
func (s *setup) discard() {
	s.lr.close()
	s.srv.kill()
	os.RemoveAll(s.dir)
}

// backlogLimit, in ms, is how far behind its schedule an open-loop
// lane may be at the end of a run. Above it the offered rate was not
// sustained and the run counts as failed.
const backlogLimit = 100

// servedOpts sizes a clean run.
type servedOpts struct {
	seed    int64
	seconds float64
	// scale divides the record rates; 1 except in the smoke test.
	scale float64
	// rounds is how many times set-up is done; the last is used.
	rounds int
	// extras adds what only the layer metrics need: three timed
	// checkpoints instead of one and a restored successor.
	extras bool
}

// snapshot is the server's counters at one instant.
type snapshot struct {
	mem   runtimeCounters
	cpu   time.Duration
	stats *api.StatsResponse
	units int // timeunits stepped, over all streams
}

// snap reads the counters; gc forces a collection first.
func (s *setup) snap(ctx context.Context, gc bool) (snapshot, error) {
	var sn snapshot
	var err error
	if sn.mem, err = s.srv.counters(ctx, gc); err != nil {
		return sn, err
	}
	if sn.cpu, err = procCPU(s.srv.cmd.Process.Pid); err != nil {
		return sn, err
	}
	if sn.stats, err = s.lr.side.Stats(ctx); err != nil {
		return sn, fmt.Errorf("stats: %w", err)
	}
	streams, err := s.lr.side.Streams(ctx)
	if err != nil {
		return sn, fmt.Errorf("streams: %w", err)
	}
	for _, st := range streams {
		sn.units += st.Units
	}
	return sn, nil
}

// runServed measures one workload against the real binary.
func runServed(ctx context.Context, root, bin string, w *workload, o servedOpts) (*servedResult, error) {
	var s *setup
	var setups []float64
	for i := 0; i < o.rounds; i++ {
		if s != nil {
			s.discard()
		}
		var err error
		if s, err = setUp(ctx, root, bin, w, o.seed, o.scale); err != nil {
			return nil, err
		}
		setups = append(setups, s.took.Seconds())
	}
	lr, srv := s.lr, s.srv
	defer srv.kill()
	defer lr.close()

	// A collection and a counter snapshot, then the clock starts.
	before, err := s.snap(ctx, true)
	if err != nil {
		return nil, err
	}
	wall, err := lr.timed(ctx, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after, err := s.snap(ctx, false)
	if err != nil {
		return nil, err
	}
	t := lr.totals()
	if t.records == 0 {
		return nil, fmt.Errorf("%s: no records accepted in the timed phase", w.name)
	}

	r := &servedResult{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}, plan: s.p}
	fail := func(n int, format string, args ...any) {
		if n > 0 {
			r.failed += n
			logf("%s: FAILED: "+format, append([]any{w.name}, args...)...)
		}
	}

	// Every indexed entry must reach watcher 0.
	added := int64(after.stats.Index.Added)
	got := lr.awaitEntries(ctx, added)
	r.attempted += int(added)
	fail(int(added-got), "watcher 0 received %d of %d entries", got, added)

	// One checkpoint is the Table IV quantity as an operator sees it.
	checkpoints := 1
	if o.extras {
		checkpoints = 3
	}
	var ckpt reader
	for i := 0; i < checkpoints; i++ {
		err := ckpt.timeCall(ctx, func() error {
			resp, err := lr.side.Checkpoint(ctx)
			if err == nil && resp.Streams != w.streams {
				err = fmt.Errorf("checkpointed %d of %d streams", resp.Streams, w.streams)
			}
			return err
		})
		if err != nil {
			logf("%s: checkpoint: %v", w.name, err)
		}
	}
	r.attempted += ckpt.calls
	fail(ckpt.failed, "%d checkpoints failed", ckpt.failed)
	ckptBytes, err := dirBytes(srv.dir)
	if err != nil {
		return nil, err
	}

	// The final walk and scrape run on every workload: they give the
	// read-side latencies and check the index against the counters.
	lr.page(ctx, true)
	if err := lr.scrape(ctx); err != nil {
		logf("%s: scrape: %v", w.name, err)
	}
	r.attempted += lr.pager.calls + lr.scraper.calls
	fail(lr.pager.failed, "%d pages failed", lr.pager.failed)
	fail(lr.scraper.failed, "%d scrapes failed", lr.scraper.failed)
	if int64(lr.paged) != added {
		fail(1, "pager walked %d entries, index added %d", lr.paged, added)
	}
	if total := seriesValue(lr.metrics, "tiresias_manager_anomalies_total"); int64(total) != got {
		fail(1, "watch entries %d != tiresias_manager_anomalies_total %v", got, total)
	}

	r.attempted += t.posts
	fail(t.failed, "%d POSTs failed", t.failed)
	m0, m1 := before.stats.Manager, after.stats.Manager
	if accepted := int(after.stats.Ingest.Records - before.stats.Ingest.Records); accepted != t.records {
		fail(1, "server accepted %d records, client sent %d", accepted, t.records)
	}
	lost := m1.Dropped + m1.Rejected + m1.Failed
	fail(int(lost), "%d records dropped, rejected or failed in the pipeline", lost)
	r.attempted++
	if h, err := lr.side.Health(ctx); err != nil || h.Status != api.HealthOK {
		fail(1, "healthz: %v %+v", err, h)
	}
	for _, ln := range lr.lanes {
		if late := ln.backlog(); late > backlogLimit {
			fail(1, "unsustainable: lane %d ended %.0fms behind its schedule", ln.id, late)
		}
	}

	rss, err := procPeakRSS(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	lr.close()
	srv.stop()

	if o.extras {
		// A successor restoring the checkpoint, exec to healthy.
		begin := time.Now()
		next, err := startServer(ctx, bin, w, s.dir, true)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		r.layer["checkpoint.restore_ms"] = ms(time.Since(begin))
		next.kill()
	}

	wt := lr.watchers[0]
	mismatch, checked, err := checkOutput(s.p, lr.lanes[0].sent, wt.entries)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if mismatch != "" {
		fail(1, "output check: %s", mismatch)
	}
	detect := wt.detect
	sort.Float64s(detect)
	if len(detect) == 0 {
		fail(1, "no anomaly entry was timed: detect_p50_ms has no samples")
	}
	r.correct = r.failed == 0

	records := float64(t.records)
	mb := func(b float64) float64 { return b / (1 << 20) }
	r.e2e["records_per_s"] = records / wall.Seconds()
	r.e2e["post_p50_ms"] = percentile(t.post, 50)
	r.e2e["detect_p50_ms"] = percentile(detect, 50)
	r.e2e["cpu_us_per_record"] = us(after.cpu-before.cpu) / records
	r.e2e["allocs_per_record"] = float64(after.mem.mallocs-before.mem.mallocs) / records
	r.e2e["alloc_bytes_per_record"] = float64(after.mem.totalAlloc-before.mem.totalAlloc) / records
	r.e2e["rss_peak_mb"] = mb(float64(rss))
	r.e2e["checkpoint_mb"] = mb(float64(ckptBytes))
	r.e2e["setup_s"] = median(setups)

	postTail := supportedTail(len(t.post), 99)
	detectTail := supportedTail(len(detect), 99)
	lateTail := supportedTail(len(t.late), 99)
	units := float64(after.units - before.units)
	anomalies := float64(m1.Anomalies - m0.Anomalies)
	var reconnects, lagged float64
	for _, x := range lr.watchers {
		reconnects += float64(x.w.Reconnects())
		lagged += float64(x.w.Lagged())
	}
	r.layer["client.post_p99_ms"] = percentile(t.post, postTail)
	r.layer["client.detect_p99_ms"] = percentile(detect, detectTail)
	r.layer["client.late_p99_ms"] = percentile(t.late, lateTail)
	r.layer["client.retries"] = float64(t.retries)
	r.layer["client.watch_reconnects"] = reconnects
	r.layer["client.watch_lagged"] = lagged
	r.layer["httpserve.body_mb_per_s"] = mb(float64(after.stats.Ingest.Bytes-before.stats.Ingest.Bytes)) / wall.Seconds()
	r.layer["httpserve.page_ms_p50"] = median(lr.pager.ms)
	r.layer["httpserve.scrape_ms_p50"] = median(lr.scraper.ms)
	r.layer["httpserve.watch_delivered"] = float64(after.stats.Watch.Delivered)
	r.layer["httpserve.watch_dropped"] = float64(after.stats.Watch.Dropped)
	r.layer["httpserve.requests_4xx"] = seriesValue(lr.metrics, `tiresias_http_requests_total{code="4xx"}`)
	r.layer["httpserve.requests_5xx"] = seriesValue(lr.metrics, `tiresias_http_requests_total{code="5xx"}`)
	r.layer["tiresias.groups_per_post"] = float64(t.groups) / float64(t.posts)
	r.layer["tiresias.queue_depth_mean"] = mean(lr.depths)
	r.layer["tiresias.queue_depth_max"] = slices.Max(append(lr.depths, 0))
	r.layer["tiresias.shard_skew"] = shardSkew(m1)
	r.layer["tiresias.dropped"] = float64(m1.Dropped)
	r.layer["tiresias.rejected"] = float64(m1.Rejected)
	r.layer["tiresias.failed"] = float64(m1.Failed)
	r.layer["algo.steps"] = units
	r.layer["detect.anomalies"] = anomalies
	r.layer["detect.anomalies_per_kunit"] = 1000 * anomalies / max(units, 1)
	r.layer["store.evicted"] = float64(after.stats.Index.Evicted)
	r.layer["checkpoint.write_ms"] = median(ckpt.ms)
	r.layer["runtime.gc_cycles"] = float64(after.mem.numGC - before.mem.numGC)
	r.layer["runtime.heap_live_mb"] = mb(float64(before.mem.heapAlloc))
	r.layer["gen.generate_s"] = s.p.genS
	r.layer["gen.encode_s"] = s.p.encodeS

	r.info["timed_s"] = wall.Seconds()
	r.info["records"] = t.records
	r.info["days"] = lr.lanes[0].cur.day + 1
	r.info["laps"] = lapVariants
	r.info["post_samples"] = len(t.post)
	r.info["post_tail_pct"] = postTail
	r.info["detect_samples"] = len(detect)
	r.info["detect_tail_pct"] = detectTail
	r.info["late_samples"] = len(t.late)
	r.info["late_tail_pct"] = lateTail
	r.info["watch_entries"] = got
	r.info["checked_entries"] = checked
	return r, nil
}

// shardSkew is the busiest shard's records over the mean shard's.
func shardSkew(m tiresias.ManagerStats) float64 {
	var most, total float64
	for _, sh := range m.Shards {
		total += float64(sh.Records)
		most = max(most, float64(sh.Records))
	}
	if total == 0 {
		return 0
	}
	return most / (total / float64(len(m.Shards)))
}

// seriesValue reads one series from a Prometheus text exposition;
// 0 when absent.
func seriesValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// checkOutput replays stream 0's records — the bodies lane 0 sent,
// regenerated from the plan — through an in-process detector built
// from the same options as the server's flags, and compares key, unit
// time, actual and forecast of every anomaly with what watcher 0
// received for that stream. It returns a description of the first
// difference ("" when equal) and the number of entries compared.
func checkOutput(p *plan, bodies int, got []tiresias.AnomalyEntry) (string, int, error) {
	recs := p.streamRecords(0, bodies)
	if len(recs) == 0 {
		return "", 0, fmt.Errorf("output check: stream 0 sent no records")
	}
	det, err := tiresias.New(
		tiresias.WithDelta(delta),
		tiresias.WithWindowLen(p.w.window),
		tiresias.WithTheta(10),
		tiresias.WithThresholds(tiresias.DefaultThresholds()),
	)
	if err != nil {
		return "", 0, err
	}
	res, err := det.Run(context.Background(), tiresias.NewSliceSource(recs))
	if err != nil {
		return "", 0, fmt.Errorf("output check: reference run: %w", err)
	}
	// The server has not seen a record past the last unit, so that
	// unit is still open there; Run flushed it.
	open := recs[len(recs)-1].Time.Truncate(delta)
	var want []tiresias.Anomaly
	for _, a := range res.Anomalies {
		if a.Time.Before(open) {
			want = append(want, a)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("stream %s: server reported %d anomalies, reference %d", p.names[0], len(got), len(want)), len(want), nil
	}
	for i, w := range want {
		g := got[i]
		if g.Key != w.Key || !g.Time.Equal(w.Time) || g.Actual != w.Actual || g.Forecast != w.Forecast {
			return fmt.Sprintf("stream %s entry %d: server %v@%v actual %v forecast %v, reference %v@%v actual %v forecast %v",
				p.names[0], i, g.Key, g.Time, g.Actual, g.Forecast, w.Key, w.Time, w.Actual, w.Forecast), len(want), nil
		}
	}
	return "", len(want), nil
}
