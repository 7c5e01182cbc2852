package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/httpserve"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// The traced run is in-process and single-threaded on the generator
// side. Layers with no seam between them are measured as a ladder:
// the same records go through successive public prefixes of the
// record's trip —
//
//	hierarchy.Tree.Intern → stream.Windower.ObserveDense →
//	algo.Engine.StepDense → tiresias.Tiresias.Run →
//	Manager.FeedBatch → httpserve Handler on a recorder
//
// — every rung synchronous on one goroutine, so a layer's self time
// is its rung minus the one below and the top rung is the serial cost
// of a record, comparable with the clean run's server CPU per record.
// Small negative differences are reported, not clamped. The queue cost
// of pipelined ingest (EnqueueBatch) is timed on its own, and the
// served path over loopback runs once with spans and once without.

// tracedOpts sizes a traced run.
type tracedOpts struct {
	seconds float64
	scale   float64
	// served is the clean run this traced run follows: it sets the
	// ladder's size and is what the ladder is reconciled against.
	served *servedResult
}

// merged walks all lanes' bodies in the plan's global order.
type merged struct {
	cur  []cursor
	next []pending
}

type pending struct {
	b   *body
	day int
	pos int
}

func newMerged(p *plan) *merged {
	m := &merged{cur: make([]cursor, p.w.lanes()), next: make([]pending, p.w.lanes())}
	for i := range m.cur {
		m.cur[i] = cursor{p: p, lane: i}
		m.advance(i)
	}
	return m
}

func (m *merged) advance(lane int) {
	c := &m.cur[lane]
	b, day := c.next()
	m.next[lane] = pending{b, day, c.dayBase + b.before}
}

// pop returns the body with the lowest position over all lanes.
func (m *merged) pop() (*body, int) {
	best := 0
	for i, n := range m.next {
		if n.pos < m.next[best].pos {
			best = i
		}
	}
	n := m.next[best]
	m.advance(best)
	return n.b, n.day
}

// group is one consecutive same-stream run of a body, the unit the
// server feeds or enqueues.
type group struct {
	stream int
	recs   []tiresias.Record
}

// groupsOf splits a body into its groups for a replayed day.
func (p *plan) groupsOf(b *body, day int) []group {
	var out []group
	for i, r := range b.recs {
		if i == 0 || b.recs[i-1].stream != r.stream {
			out = append(out, group{stream: int(r.stream)})
		}
		g := &out[len(out)-1]
		g.recs = append(g.recs, p.record(r, day))
	}
	return out
}

// sample is the ladder's input: the warm-up bodies and the timed
// bodies in global order, and the same records per stream.
type sample struct {
	p           *plan
	warm, timed int // body counts
	records     int // timed records
	// perStream splits at the unit boundary before each stream's
	// last warm-up record: warm holds whole units only, so a detector
	// run over it ends where the next record begins a unit.
	perStream []streamSample
}

type streamSample struct {
	warm, timed []tiresias.Record
	cut         time.Time // start of the first timed unit
}

// newSample sizes the ladder: the warm-up every lane needs, then
// enough bodies for the wanted number of timed records.
func newSample(p *plan, records int) *sample {
	s := &sample{p: p, perStream: make([]streamSample, p.w.streams)}
	for lane := 0; lane < p.w.lanes(); lane++ {
		s.warm += p.warmBodies(lane)
	}
	m := newMerged(p)
	all := make([][]tiresias.Record, p.w.streams)
	warmLen := make([]int, p.w.streams)
	for i := 0; i < s.warm || s.records < records; i++ {
		b, day := m.pop()
		for _, g := range p.groupsOf(b, day) {
			all[g.stream] = append(all[g.stream], g.recs...)
		}
		if i < s.warm {
			for st := range all {
				warmLen[st] = len(all[st])
			}
			continue
		}
		s.timed++
		s.records += len(b.recs)
	}
	for st, recs := range all {
		ss := &s.perStream[st]
		if warmLen[st] == 0 {
			ss.timed = recs
			continue
		}
		ss.cut = recs[warmLen[st]-1].Time.Truncate(delta)
		n := sort.Search(len(recs), func(i int) bool { return !recs[i].Time.Before(ss.cut) })
		ss.warm, ss.timed = recs[:n], recs[n:]
	}
	return s
}

// replay calls fn for every body of the sample in order, with a
// collection between warm-up and timed bodies so the warm-up's
// garbage is not marked beside the timed part.
func (s *sample) replay(fn func(b *body, day int, timed bool)) {
	m := newMerged(s.p)
	for i := 0; i < s.warm+s.timed; i++ {
		if i == s.warm {
			runtime.GC()
		}
		b, day := m.pop()
		fn(b, day, i >= s.warm)
	}
}

// detectorOptions are the in-process equivalent of the server's
// flags.
func detectorOptions(w *workload) []tiresias.Option {
	return []tiresias.Option{
		tiresias.WithDelta(delta),
		tiresias.WithWindowLen(w.window),
		tiresias.WithTheta(10),
		tiresias.WithThresholds(tiresias.DefaultThresholds()),
	}
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder holds the rung totals and what else the rungs observed.
type ladder struct {
	s  *sample
	tr *tracer

	intern, window, step, run, feed, handler time.Duration
	enqueue                                  time.Duration

	windowAllocs, stepAllocs uint64
	unitsOut                 int
	steps                    []float64 // us per StepDense call
	stages                   tiresias.StageTimings
	shhh                     int // summed SHHH set sizes
	nodes, floats            int
	runUnits                 int
	snapshot                 time.Duration
	entries                  []tiresias.AnomalyEntry
}

// timeSpan runs fn, records it as a span, and returns its duration.
func (l *ladder) timeSpan(name string, seq int, fn func()) time.Duration {
	begin := time.Now()
	fn()
	end := time.Now()
	l.tr.add(span{Name: name, Seq: int64(seq), Start: l.tr.at(begin), End: l.tr.at(end)})
	return end.Sub(begin)
}

// perStream runs one of the per-stream rungs. prepare builds a
// stream's state, warms it up and returns the timed part; every
// stream is prepared first and a collection follows, so no timed part
// runs beside the marking of another's warm-up garbage. It returns
// the summed time and allocation count of the timed parts.
func (l *ladder) perStream(name string, prepare func(ss streamSample) (func() error, error)) (time.Duration, uint64, error) {
	timed := make([]func() error, len(l.s.perStream))
	for st, ss := range l.s.perStream {
		fn, err := prepare(ss)
		if err != nil {
			return 0, 0, err
		}
		timed[st] = fn
	}
	runtime.GC()
	var total time.Duration
	before := mallocs()
	for st, fn := range timed {
		var err error
		total += l.timeSpan(name, st, func() { err = fn() })
		if err != nil {
			return 0, 0, err
		}
	}
	return total, mallocs() - before, nil
}

// rungIntern: hierarchy.Tree.Intern on every record.
func (l *ladder) rungIntern() (err error) {
	l.intern, _, err = l.perStream("hierarchy.intern", func(ss streamSample) (func() error, error) {
		tree := hierarchy.New()
		for _, r := range ss.warm {
			tree.Intern(r.Path)
		}
		return func() error {
			for _, r := range ss.timed {
				tree.Intern(r.Path)
			}
			return nil
		}, nil
	})
	return err
}

// newWindower mirrors the windower a managed stream gets.
func newWindower(tree *hierarchy.Tree, at time.Time) (*stream.Windower, error) {
	w, err := stream.NewWindower(delta)
	if !at.IsZero() {
		w, err = stream.NewWindowerAt(delta, at)
	}
	if err != nil {
		return nil, err
	}
	w.SetMaxGap(tiresias.DefaultMaxGap)
	w.BindTree(tree)
	return w, nil
}

// rungWindow: interning plus windowing into dense units.
func (l *ladder) rungWindow() (err error) {
	l.window, l.windowAllocs, err = l.perStream("stream.window", func(ss streamSample) (func() error, error) {
		w, err := newWindower(hierarchy.New(), time.Time{})
		if err != nil {
			return nil, err
		}
		for _, r := range ss.warm {
			if _, err := w.ObserveDense(r); err != nil {
				return nil, err
			}
		}
		return func() error {
			for _, r := range ss.timed {
				done, err := w.ObserveDense(r)
				if err != nil {
					return err
				}
				l.unitsOut += len(done)
			}
			return nil
		}, nil
	})
	return err
}

// warmDetector runs a fresh detector over a stream's warm-up records.
func (l *ladder) warmDetector(ss streamSample) (*tiresias.Tiresias, error) {
	det, err := tiresias.New(detectorOptions(l.s.p.w)...)
	if err != nil {
		return nil, err
	}
	if _, err := det.Run(context.Background(), tiresias.NewSliceSource(ss.warm)); err != nil {
		return nil, fmt.Errorf("ladder warm-up: %w", err)
	}
	if !det.Warm() {
		return nil, fmt.Errorf("ladder warm-up: detector not warm after %d records", len(ss.warm))
	}
	return det, nil
}

// rungStep: windowing plus the engine step on every completed unit,
// each step timed on its own.
func (l *ladder) rungStep() (err error) {
	var dets []*tiresias.Tiresias
	l.step, l.stepAllocs, err = l.perStream("algo.steps", func(ss streamSample) (func() error, error) {
		det, err := l.warmDetector(ss)
		if err != nil {
			return nil, err
		}
		dets = append(dets, det)
		engine := det.Engine()
		w, err := newWindower(engine.Tree(), ss.cut)
		if err != nil {
			return nil, err
		}
		return func() error {
			for _, r := range ss.timed {
				done, err := w.ObserveDense(r)
				if err != nil {
					return err
				}
				for _, u := range done {
					begin := time.Now()
					state, err := engine.StepDense(u)
					took := time.Since(begin)
					if err != nil {
						return err
					}
					l.steps = append(l.steps, us(took))
					l.stages.Add(state.Timings)
					l.shhh += len(state.HeavyHitters)
				}
			}
			return nil
		}, nil
	})
	for _, det := range dets {
		l.nodes += det.Engine().Tree().Len()
		l.floats += det.Engine().Memory().TotalFloats()
	}
	return err
}

// rungRun: the whole detector — windowing, step, Definition-4
// screening, sinks — through Tiresias.Run; then its snapshot.
func (l *ladder) rungRun() (err error) {
	var dets []*tiresias.Tiresias
	l.run, _, err = l.perStream("tiresias.run", func(ss streamSample) (func() error, error) {
		det, err := l.warmDetector(ss)
		if err != nil {
			return nil, err
		}
		dets = append(dets, det)
		src := tiresias.NewSliceSource(ss.timed)
		return func() error {
			res, err := det.Run(context.Background(), src)
			if err == nil {
				l.runUnits += res.Units
			}
			return err
		}, nil
	})
	for st, det := range dets {
		if err != nil {
			break
		}
		l.snapshot += l.timeSpan("checkpoint.snapshot", st, func() { err = det.Snapshot(io.Discard) })
	}
	return err
}

// perBody runs one of the body-by-body rungs over the sample.
// prepare readies a body outside the clock and returns the call to
// time; warm-up bodies run it untimed. It returns the summed time of
// the timed bodies.
func (l *ladder) perBody(name string, prepare func(b *body, day int) func()) time.Duration {
	var total time.Duration
	seq := 0
	l.s.replay(func(b *body, day int, timed bool) {
		call := prepare(b, day)
		if !timed {
			call()
			return
		}
		seq++
		total += l.timeSpan(name, seq, call)
	})
	return total
}

// rungFeed: the sharded Manager's synchronous FeedBatch, group by
// group as the server would call it. Its index keeps the entries the
// store and encode timings reuse.
func (l *ladder) rungFeed() error {
	w := l.s.p.w
	ix := tiresias.NewAnomalyIndex(1_000_000)
	m, err := tiresias.NewManager(
		tiresias.WithShards(w.shards),
		tiresias.WithDetectorOptions(detectorOptions(w)...),
		tiresias.WithAnomalyIndex(ix),
	)
	if err != nil {
		return err
	}
	defer m.Close()
	l.feed = l.perBody("tiresias.feedbatch", func(b *body, day int) func() {
		groups := l.s.p.groupsOf(b, day)
		return func() {
			for _, g := range groups {
				if _, _, ferr := m.FeedBatch(l.s.p.names[g.stream], g.recs); ferr != nil && err == nil {
					err = ferr
				}
			}
		}
	})
	l.entries = ix.Query(tiresias.AnomalyQuery{})
	return err
}

// rungEnqueue: the cost of handing a body's groups to the pipeline.
// The queues are drained before each body, so the time is the enqueue
// itself, not the wait for a full queue.
func (l *ladder) rungEnqueue() error {
	w := l.s.p.w
	m, err := tiresias.NewManager(
		tiresias.WithShards(w.shards),
		tiresias.WithDetectorOptions(detectorOptions(w)...),
		tiresias.WithPipeline(max(w.queue, 64), tiresias.Block),
	)
	if err != nil {
		return err
	}
	defer m.Close()
	l.enqueue = l.perBody("tiresias.enqueue", func(b *body, day int) func() {
		m.Drain()
		groups := l.s.p.groupsOf(b, day)
		return func() {
			for _, g := range groups {
				if eerr := m.EnqueueBatch(l.s.p.names[g.stream], g.recs); eerr != nil && err == nil {
					err = eerr
				}
			}
		}
	})
	m.Drain()
	if st := m.Stats(); st.Failed > 0 && err == nil {
		err = fmt.Errorf("ladder enqueue: %d records failed in the pipeline", st.Failed)
	}
	return err
}

// serverConfig is httpserve's configuration for the workload's flags;
// queue 0 makes ingest synchronous.
func serverConfig(w *workload, queue int, opts ...tiresias.Option) httpserve.Config {
	return httpserve.Config{
		Delta:           delta,
		WindowLen:       w.window,
		Shards:          w.shards,
		QueueDepth:      queue,
		Backpressure:    tiresias.Block,
		IndexCap:        1_000_000,
		DetectorOptions: opts,
	}
}

// wireBytes returns the body as it crosses the wire, and its content
// type.
func wireBytes(b *body) ([]byte, string, error) {
	if b.wire == nil {
		return b.ndjson, "application/x-ndjson", nil
	}
	raw, err := json.Marshal(b.wire)
	return raw, "application/json", err
}

// rungHandler: the full served handler, synchronous ingest, on an
// httptest recorder — decode, validate, group, feed, reply.
func (l *ladder) rungHandler() error {
	hs, err := httpserve.New(serverConfig(l.s.p.w, 0))
	if err != nil {
		return err
	}
	defer hs.Close()
	handler := hs.Handler()
	l.handler = l.perBody("httpserve.handler", func(b *body, day int) func() {
		b.setDay(day)
		raw, ctype, merr := wireBytes(b)
		if merr != nil && err == nil {
			err = merr
		}
		req := httptest.NewRequest(http.MethodPost, "/v2/records", bytes.NewReader(raw))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		return func() {
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && err == nil {
				err = fmt.Errorf("ladder handler: status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	return err
}

// servedInProcess runs the load driver against an in-process server
// in the workload's real mode over loopback for length, with spans on
// when tr is non-nil, and returns the records it served and the
// records/s it reached.
func servedInProcess(ctx context.Context, p *plan, scale float64, length time.Duration, tr *tracer) (int, float64, error) {
	var opts []tiresias.Option
	if tr != nil {
		opts = append(opts, tiresias.WithSink(tiresias.SinkFuncs{Unit: func(ev tiresias.UnitEvent) {
			now := tr.at(time.Now())
			tr.add(span{Name: "tiresias.unit", Unit: int(ev.Start.Sub(day0) / delta), Start: now, End: now})
		}}))
	}
	hs, err := httpserve.New(serverConfig(p.w, p.w.queue, opts...))
	if err != nil {
		return 0, 0, err
	}
	defer hs.Close()
	handler := hs.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	lr, err := newLoadRun(p, "http://"+ln.Addr().String(), scale, tr)
	if err != nil {
		return 0, 0, err
	}
	defer lr.close()
	lr.startWatchers(ctx)
	if err := lr.warm(ctx); err != nil {
		return 0, 0, err
	}
	wall, err := lr.timed(ctx, length)
	if err != nil {
		return 0, 0, err
	}
	t := lr.totals()
	if t.failed > 0 {
		return 0, 0, fmt.Errorf("traced served run: %d POSTs failed", t.failed)
	}
	return t.records, float64(t.records) / wall.Seconds(), nil
}

// decodeCost times json.Unmarshal into api.Record on the workload's
// own wire form — NDJSON lines, or whole arrays — over the sample's
// first timed bodies.
func (l *ladder) decodeCost() (usPerRecord, allocsPerRecord float64, err error) {
	var took time.Duration
	var allocs uint64
	records, seq := 0, 0
	l.s.replay(func(b *body, day int, timed bool) {
		if !timed || records >= 100_000 || err != nil {
			return
		}
		raw, _, merr := wireBytes(b)
		if merr != nil {
			err = merr
			return
		}
		seq++
		before := mallocs()
		took += l.timeSpan("api.decode", seq, func() {
			if b.wire != nil {
				var recs []api.Record
				err = json.Unmarshal(raw, &recs)
				return
			}
			for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
				var rec api.Record
				if err = json.Unmarshal(line, &rec); err != nil {
					return
				}
			}
		})
		allocs += mallocs() - before
		records += len(b.recs)
	})
	if records == 0 || err != nil {
		return 0, 0, err
	}
	return us(took) / float64(records), float64(allocs) / float64(records), nil
}

// entryCosts times the anomaly entries' trip through the index and
// the encoder: Add, paged reads, json.Marshal. All 0 when the sample
// produced no entry.
func (l *ladder) entryCosts() (add, page, encode float64, err error) {
	n := float64(len(l.entries))
	if n == 0 {
		return 0, 0, 0, nil
	}
	ix := tiresias.NewAnomalyIndex(1_000_000)
	addTook := l.timeSpan("store.add", 0, func() {
		for _, e := range l.entries {
			ix.Add(e.Stream, e.Anomaly)
		}
	})
	pageTook := l.timeSpan("store.page", 0, func() {
		q := tiresias.AnomalyQuery{Limit: pageSize}
		for {
			pg := ix.PageAfter(q)
			q.Since = pg.Next
			if !pg.More {
				return
			}
		}
	})
	encodeTook := l.timeSpan("api.encode", 0, func() {
		for _, e := range l.entries {
			if _, merr := json.Marshal(e); merr != nil {
				err = merr
			}
		}
	})
	return us(addTook) / n, us(pageTook) / n, us(encodeTook) / n, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced produces the layer metrics that need in-process timing
// and writes the workload's span file.
func runTraced(ctx context.Context, root string, p *plan, o tracedOpts) (map[string]float64, map[string]any, error) {
	w := p.w
	// Half the time goes to the ladder — at most six rungs cost about
	// a served record each — and half to the two served passes.
	slice := o.seconds / 12
	l := &ladder{s: newSample(p, int(o.served.e2e["records_per_s"]*slice)), tr: newTracer()}

	for _, rung := range []func() error{l.rungIntern, l.rungWindow, l.rungStep, l.rungRun, l.rungFeed, l.rungEnqueue, l.rungHandler} {
		// The plan's encoded days are live heap every collection has
		// to mark, so one cycle costs more than a cheap rung. Starting
		// each rung from a fresh collection keeps cycles out of the
		// cheap rungs and leaves the dear ones a few.
		runtime.GC()
		if err := rung(); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	decodeUs, decodeAllocs, err := l.decodeCost()
	if err != nil {
		return nil, nil, err
	}
	addUs, pageUs, encodeUs, err := l.entryCosts()
	if err != nil {
		return nil, nil, err
	}

	length := time.Duration(o.seconds / 4 * float64(time.Second))
	served := newTracer()
	runtime.GC()
	servedRecords, rateOn, err := servedInProcess(ctx, p, o.scale, length, served)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	_, rateOff, err := servedInProcess(ctx, p, o.scale, length, nil)
	if err != nil {
		return nil, nil, err
	}
	self := selfTimes(served.spans)
	served.spans = append(served.spans, l.tr.rebased(served)...)
	if err := served.write(filepath.Join(root, "bench", "out", "trace-"+w.name+".json")); err != nil {
		return nil, nil, err
	}

	n := float64(l.s.records)
	steps := float64(len(l.steps))
	perRecord := func(d time.Duration) float64 { return us(d) / n }
	stage := func(d time.Duration) float64 { return us(d) / max(steps, 1) }
	sort.Float64s(l.steps)
	cpu := o.served.e2e["cpu_us_per_record"]
	m := map[string]float64{
		"hierarchy.intern_us_per_record":    perRecord(l.intern),
		"hierarchy.nodes":                   float64(l.nodes),
		"stream.window_us_per_record":       perRecord(l.window - l.intern),
		"stream.window_allocs_per_record":   float64(l.windowAllocs) / n,
		"stream.units_out":                  float64(l.unitsOut),
		"algo.step_us_p50":                  percentile(l.steps, 50),
		"algo.step_us_mean":                 mean(l.steps),
		"algo.step_allocs_per_unit":         float64(l.stepAllocs) / max(steps, 1),
		"algo.stage_hier_us":                stage(l.stages.UpdatingHierarchies),
		"algo.stage_series_us":              stage(l.stages.CreatingTimeSeries),
		"algo.stage_forecast_us":            stage(l.stages.DetectingAnomalies),
		"algo.shhh_size_mean":               float64(l.shhh) / max(steps, 1),
		"algo.memory_floats":                float64(l.floats),
		"tiresias.detector_us_per_unit":     us(l.run-l.window) / float64(max(l.runUnits, 1)),
		"detect.screen_us_per_unit":         us(l.run-l.step) / float64(max(l.runUnits, 1)),
		"tiresias.feedbatch_us_per_record":  perRecord(l.feed),
		"tiresias.self_us_per_record":       perRecord(l.feed - l.run),
		"tiresias.enqueue_us_per_record":    perRecord(l.enqueue),
		"httpserve.self_us_per_record":      perRecord(l.handler - l.feed),
		"httpserve.handler_ms_p50":          percentile(durations(served.spans, "httpserve.handler"), 50),
		"client.self_us_per_record":         us(self["client.ingest"]) / float64(max(servedRecords, 1)),
		"api.decode_us_per_record":          decodeUs,
		"api.decode_allocs_per_record":      decodeAllocs,
		"api.encode_us_per_entry":           encodeUs,
		"store.add_us_per_entry":            addUs,
		"store.page_us_per_entry":           pageUs,
		"checkpoint.snapshot_us_per_stream": us(l.snapshot) / float64(w.streams),
		"trace.overhead_pct":                100 * (rateOff - rateOn) / rateOff,
		"trace.ladder_residual_pct":         100 * (perRecord(l.handler) - cpu) / cpu,
	}
	// The ladder's self times as shares of its top rung: which layer
	// does the work on this workload.
	shares := map[string]any{}
	for layer, d := range map[string]time.Duration{
		"hierarchy": l.intern,
		"stream":    l.window - l.intern,
		"algo":      l.step - l.window,
		"detect":    l.run - l.step,
		"tiresias":  l.feed - l.run,
		"httpserve": l.handler - l.feed,
	} {
		shares[layer] = float64(d) / float64(l.handler)
	}
	info := map[string]any{
		"ladder_records":                 l.s.records,
		"ladder_us_per_record":           perRecord(l.handler),
		"ladder_self_share":              shares,
		"served_spans_on_records_per_s":  rateOn,
		"served_spans_off_records_per_s": rateOff,
	}
	return m, info, nil
}

// rebased shifts this tracer's spans onto another tracer's clock and
// past its IDs, so both sets fit one file.
func (t *tracer) rebased(onto *tracer) []span {
	shift := int64(t.t0.Sub(onto.t0))
	base := len(onto.spans)
	out := make([]span, len(t.spans))
	for i, s := range t.spans {
		s.ID += base
		s.Start += shift
		s.End += shift
		out[i] = s
	}
	return out
}
