package stream

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
	"tiresias/internal/wirerec"
)

func denseStart() time.Time {
	return time.Date(2012, 6, 18, 0, 0, 0, 0, time.UTC)
}

// keyed is a timeunit rendered as counts per category Key, the form
// the model below builds and the assertions compare.
type keyed map[hierarchy.Key]float64

// keyedOf renders a dense unit over tree as keyed counts.
func keyedOf(tree *hierarchy.Tree, u *algo.DenseUnit) keyed {
	out := make(keyed, u.Len())
	for i, id := range u.IDs() {
		out[tree.Key(int(id))] += u.Values()[i]
	}
	return out
}

// mapWindower is the reference model of Windower: map-form windowing,
// one keyed unit per Δ, each record counted under its path's Key.
// It is written from the definition (Step 1 of Fig. 3 plus the
// out-of-order, gap-bound and path-label rules), not from the dense
// code, so the tests below check the dense path against it.
type mapWindower struct {
	delta  time.Duration
	start  time.Time
	began  bool
	maxGap int
	cur    keyed
}

func newMapWindower(delta time.Duration, maxGap int) *mapWindower {
	return &mapWindower{delta: delta, maxGap: maxGap, cur: keyed{}}
}

// observe returns every unit completed strictly before r's own unit;
// a rejected record changes nothing.
func (m *mapWindower) observe(r Record) ([]keyed, error) {
	start := m.start
	if !m.began {
		start = r.Time.Truncate(m.delta)
	}
	if r.Time.Before(start) {
		return nil, ErrOutOfOrder
	}
	if m.maxGap > 0 && r.Time.Sub(start)/m.delta > time.Duration(m.maxGap) {
		return nil, ErrMaxGap
	}
	for _, label := range r.Path {
		if label == "" || strings.Contains(label, "\x1f") {
			return nil, errors.New("path names no node")
		}
	}
	m.start, m.began = start, true
	var done []keyed
	for !r.Time.Before(m.start.Add(m.delta)) {
		done = append(done, m.cur)
		m.cur = keyed{}
		m.start = m.start.Add(m.delta)
	}
	m.cur[hierarchy.KeyOf(r.Path)]++
	return done, nil
}

// flush completes and returns the current unit.
func (m *mapWindower) flush() keyed {
	u := m.cur
	m.cur = keyed{}
	m.start = m.start.Add(m.delta)
	return u
}

// newBound returns a Windower bound to a fresh tree.
func newBound(t testing.TB, delta time.Duration) (*Windower, *hierarchy.Tree) {
	t.Helper()
	w, err := NewWindower(delta)
	if err != nil {
		t.Fatal(err)
	}
	tree := hierarchy.New()
	w.BindTree(tree)
	return w, tree
}

// sameUnits fails unless the dense units hold exactly the model's
// counts, unit by unit.
func sameUnits(t testing.TB, label string, tree *hierarchy.Tree, got []*algo.DenseUnit, want []keyed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d dense units, model has %d", label, len(got), len(want))
	}
	for i := range want {
		sameUnit(t, label, keyedOf(tree, got[i]), want[i])
	}
}

func sameUnit(t testing.TB, label string, got, want keyed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, model has %d (%v vs %v)", label, len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %q = %v, model has %v", label, k, got[k], v)
		}
	}
}

// TestObserveDenseMatchesObserve feeds the same record sequence
// through the Windower and the map model and checks unit boundaries
// and counts agree.
func TestObserveDenseMatchesObserve(t *testing.T) {
	recs := []Record{
		{Path: []string{"a", "x"}, Time: denseStart()},
		{Path: []string{"a", "x"}, Time: denseStart().Add(20 * time.Second)},
		{Path: []string{"a", "y"}, Time: denseStart().Add(70 * time.Second)},
		{Path: []string{"b"}, Time: denseStart().Add(200 * time.Second)},
		{Path: []string{"a", "x"}, Time: denseStart().Add(305 * time.Second)},
	}
	model := newMapWindower(time.Minute, 0)
	wd, tree := newBound(t, time.Minute)
	for _, r := range recs {
		want, err := model.observe(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wd.ObserveDense(r)
		if err != nil {
			t.Fatal(err)
		}
		sameUnits(t, r.Time.String(), tree, got, want)
	}
	sameUnit(t, "flush", keyedOf(tree, wd.FlushDense()), model.flush())
}

// TestObserveDenseRecycles checks emitted units are pooled: after the
// next dense call, previously returned units are reset and reused.
func TestObserveDenseRecycles(t *testing.T) {
	w, _ := newBound(t, time.Minute)
	at := denseStart()
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: at}); err != nil {
		t.Fatal(err)
	}
	done, err := w.ObserveDense(Record{Path: []string{"a"}, Time: at.Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].Total() != 1 {
		t.Fatalf("expected one completed unit with total 1, got %d units", len(done))
	}
	first := done[0]
	// Crossing two more boundaries must reuse the recycled unit.
	done, err = w.ObserveDense(Record{Path: []string{"a"}, Time: at.Add(3 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("expected 2 completed units, got %d", len(done))
	}
	reused := false
	for _, u := range done {
		if u == first {
			reused = true
		}
	}
	if !reused {
		t.Fatal("emitted unit was not recycled into the pool")
	}
}

// TestObserveDenseSteadyStateAllocs is the windowing allocation guard:
// once the pools are warm, classifying a record — plain or cached,
// including boundary crossings — allocates nothing.
func TestObserveDenseSteadyStateAllocs(t *testing.T) {
	for _, cached := range []bool{false, true} {
		w, _ := newBound(t, time.Minute)
		var feed cachedFeed
		paths := [][]string{{"a", "x"}, {"a", "y"}, {"b"}}
		recs := make([]Record, len(paths))
		for i, p := range paths {
			recs[i] = Record{Path: p}
			if cached {
				recs[i] = feed.record(p, time.Time{})
			}
		}
		at := denseStart()
		step := 0
		observe := func() {
			at = at.Add(7 * time.Second) // crosses a boundary every ~9 records
			r := recs[step%len(recs)]
			r.Time = at
			step++
			if _, err := w.ObserveDense(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			observe() // warm the pools and intern the paths
		}
		if allocs := testing.AllocsPerRun(500, observe); allocs != 0 {
			t.Fatalf("steady-state ObserveDense (cached %v) allocates %.2f per op, want 0", cached, allocs)
		}
	}
}

// observeLikeModel feeds r to w and to the model and fails unless
// both complete the same units.
func observeLikeModel(t *testing.T, w *Windower, tree *hierarchy.Tree, model *mapWindower, r Record) {
	t.Helper()
	label := fmt.Sprintf("%q at %v", r.Path, r.Time)
	want, err := model.observe(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.ObserveDense(r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameUnits(t, label, tree, got, want)
}

// TestObserveDenseReusedBuffer: a plain record is never memoized, so a
// caller that rewrites one path buffer between records gets each
// record's own leaf, also while cached records of the same paths fill
// the memo.
func TestObserveDenseReusedBuffer(t *testing.T) {
	w, tree := newBound(t, time.Minute)
	model := newMapWindower(time.Minute, 0)
	var feed cachedFeed
	buf := make([]string, 2)
	labels := []string{"a", "b", "c"}
	at := denseStart()
	for i := 0; i < 90; i++ {
		at = at.Add(5 * time.Second)
		buf[0], buf[1] = labels[i%3], labels[(i/3)%3]
		r := Record{Path: buf, Time: at}
		if i%4 == 3 {
			r = feed.record(buf, at)
		}
		observeLikeModel(t, w, tree, model, r)
	}
	sameUnit(t, "flush", keyedOf(tree, w.FlushDense()), model.flush())
}

// TestObserveDenseTwoCaches: two decoder caches give their first paths
// the same handle; records from both, fed to one windower, each count
// under their own path.
func TestObserveDenseTwoCaches(t *testing.T) {
	decode := func(c *wirerec.Cache, line string) Record {
		t.Helper()
		sc := wirerec.Scanner{Cache: c}
		for pass := 0; pass < 2; pass++ { // the first pass misses and fills the cache
			sc.Begin()
			err := wirerec.Decode[wirerec.Record](&sc, []byte(line))
			sc.End()
			if err != nil {
				t.Fatal(err)
			}
		}
		return CachedRecord(sc.Rec.Path, sc.Rec.Time, sc.Ref)
	}
	c1 := wirerec.NewCache(wirerec.PathCacheCap, wirerec.StreamCacheCap)
	c2 := wirerec.NewCache(wirerec.PathCacheCap, wirerec.StreamCacheCap)
	r1 := decode(c1, `{"path":["a","x"],"time":"2012-06-18T00:00:05Z"}`)
	r2 := decode(c2, `{"path":["b","y"],"time":"2012-06-18T00:00:05Z"}`)
	if r1.ref == 0 || r1.ref != r2.ref {
		t.Fatalf("handles %d and %d, want one non-zero handle from both caches", r1.ref, r2.ref)
	}
	w, tree := newBound(t, time.Minute)
	model := newMapWindower(time.Minute, 0)
	at := denseStart()
	for i := 0; i < 40; i++ {
		at = at.Add(7 * time.Second)
		r := r1
		if i%3 != 0 {
			r = r2
		}
		r.Time = at
		observeLikeModel(t, w, tree, model, r)
	}
	sameUnit(t, "flush", keyedOf(tree, w.FlushDense()), model.flush())
}

// TestObserveDenseRequiresBind checks the windower guards its
// precondition.
func TestObserveDenseRequiresBind(t *testing.T) {
	w, err := NewWindower(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err == nil {
		t.Fatal("ObserveDense without BindTree must error")
	}
}

// TestWindowerMaxGap checks the gap bound on the Windower and the
// model: the record is rejected with ErrMaxGap, no state is mutated,
// and sane records keep working.
func TestWindowerMaxGap(t *testing.T) {
	w, _ := newBound(t, time.Minute)
	w.SetMaxGap(10)
	model := newMapWindower(time.Minute, 10)
	for _, tc := range []struct {
		offset time.Duration
		err    error
	}{
		{0, nil},
		{9 * time.Minute, nil}, // within the bound
		{500 * time.Minute, ErrMaxGap},
		{10 * time.Minute, nil}, // still usable after the rejection
	} {
		r := Record{Path: []string{"a"}, Time: denseStart().Add(tc.offset)}
		before := w.State()
		_, err := w.ObserveDense(r)
		if _, merr := model.observe(r); !errors.Is(merr, tc.err) {
			t.Fatalf("model at +%v: error %v, want %v", tc.offset, merr, tc.err)
		}
		if !errors.Is(err, tc.err) {
			t.Fatalf("+%v: error %v, want %v", tc.offset, err, tc.err)
		}
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "timeunits past") {
			t.Fatalf("error not descriptive: %v", err)
		}
		if after := w.State(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("rejected record changed the state:\n%+v\n%+v", before, after)
		}
	}
}

// TestWindowerMaxGapLargeDelta pins the overflow guard: with a
// multi-day delta, maxGap*delta would overflow a Duration; the
// unit-count comparison must still accept ordinary records.
func TestWindowerMaxGapLargeDelta(t *testing.T) {
	w, _ := newBound(t, 36*time.Hour)
	w.SetMaxGap(100_000) // tiresias.DefaultMaxGap
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(40 * time.Hour)}); err != nil {
		t.Fatalf("ordinary record rejected under large delta: %v", err)
	}
}

// TestWindowerMaxGapDisabled checks n <= 0 keeps unbounded filling.
func TestWindowerMaxGapDisabled(t *testing.T) {
	w, _ := newBound(t, time.Minute)
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err != nil {
		t.Fatal(err)
	}
	done, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(1000 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1000 {
		t.Fatalf("unbounded gap filled %d units, want 1000", len(done))
	}
}

// FuzzWindowerObserveDense holds the Windower to the map model on
// generated feeds. Each 3-byte op is a flush or a record whose time
// steps forwards, backwards (out-of-order) or far past the gap bound,
// on a path of depth 0–3 whose labels may be empty. The properties:
// the same completed units, the same rejections (ErrOutOfOrder,
// ErrMaxGap, a path naming no node) with no change to the state or
// the tree on rejection, and a State → RestoreWindower round trip at
// the cut op that continues with the same remaining units. A second
// windower is fed the same ops as cached records (see cachedFeed) and
// must agree with the first on every unit, rejection and node.
func FuzzWindowerObserveDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, maxGap int16, deltaSec uint16, cut uint8) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		checkWindower(t, ops, int(maxGap)%200, time.Duration(1+int(deltaSec)%3600)*time.Second, int(cut))
	})
}

// checkWindower is FuzzWindowerObserveDense's property for one feed.
func checkWindower(t *testing.T, ops []byte, maxGap int, delta time.Duration, cut int) {
	t.Helper()
	w, tree := newBound(t, delta)
	w.SetMaxGap(maxGap)
	cw, ctree := newBound(t, delta)
	cw.SetMaxGap(maxGap)
	var feed cachedFeed
	model := newMapWindower(delta, maxGap)
	// The far-future step exceeds a positive bound by a few units; with
	// the bound disabled it stays small enough to gap-fill cheaply.
	far := maxGap
	if far <= 0 {
		far = 50
	}
	at := denseStart().Add(7 * time.Second) // not on a unit boundary
	for i := 0; i+2 < len(ops); i += 3 {
		label := fmt.Sprintf("op %d", i/3)
		if i/3 == cut%(len(ops)/3+1) {
			st := w.State()
			rw, err := RestoreWindower(st, tree)
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			if got := rw.State(); fmt.Sprint(got) != fmt.Sprint(st) {
				t.Fatalf("%s: restored state %+v, captured %+v", label, got, st)
			}
			w = rw
			if cw, err = RestoreWindower(cw.State(), ctree); err != nil {
				t.Fatalf("%s: restore of the cached windower: %v", label, err)
			}
		}
		if i/3 == len(ops)/6 {
			feed.clear()
		}
		kind, step, shape := ops[i], int8(ops[i+1]), ops[i+2]
		if kind%8 == 0 {
			if model.began {
				want := model.flush()
				sameUnit(t, label+" flush", keyedOf(tree, w.FlushDense()), want)
				sameUnit(t, label+" cached flush", keyedOf(ctree, cw.FlushDense()), want)
			}
			continue
		}
		next := at.Add(time.Duration(step) * delta / 4)
		if kind%8 == 7 {
			next = at.Add(time.Duration(far+1+int(step)%4) * delta)
		}
		path := make([]string, shape%4)
		for d := range path {
			path[d] = []string{"a", "b", "c", ""}[(int(shape>>2)+d)%4]
		}
		r := Record{Path: path, Time: next}
		before, nodes := w.State(), tree.Len()
		want, merr := model.observe(r)
		got, err := w.ObserveDense(r)
		cgot, cerr := cw.ObserveDense(feed.record(path, next))
		for _, sentinel := range []error{ErrOutOfOrder, ErrMaxGap} {
			if errors.Is(err, sentinel) != errors.Is(merr, sentinel) || errors.Is(cerr, sentinel) != errors.Is(merr, sentinel) {
				t.Fatalf("%s at %v: error %v, cached %v, model %v", label, next, err, cerr, merr)
			}
		}
		if (err == nil) != (merr == nil) || (cerr == nil) != (merr == nil) {
			t.Fatalf("%s at %v: error %v, cached %v, model %v", label, next, err, cerr, merr)
		}
		if merr == nil {
			sameUnits(t, label+" cached", ctree, cgot, want)
		}
		if err != nil {
			if after := w.State(); fmt.Sprint(after) != fmt.Sprint(before) || tree.Len() != nodes {
				t.Fatalf("%s: rejected record changed the state or grew the tree from %d to %d nodes:\n%+v\n%+v",
					label, nodes, tree.Len(), before, after)
			}
			continue
		}
		at = next
		sameUnits(t, label, tree, got, want)
	}
	if ctree.Len() != tree.Len() {
		t.Fatalf("cached windower's tree has %d nodes, plain %d", ctree.Len(), tree.Len())
	}
	for id := 0; id < tree.Len(); id++ {
		if ctree.Key(id) != tree.Key(id) {
			t.Fatalf("node %d: cached windower's tree has %q, plain %q", id, ctree.Key(id), tree.Key(id))
		}
	}
}

// cachedFeed stands in for a decoder cache: it hands out one shared,
// never-written slice per distinct path, with a handle from {0, 1, 2}
// given in first-sight order, so distinct slices share a handle. A new
// path that prefixes a pooled one gets that slice's prefix and handle:
// the same first element under a different length. clear starts a new
// pool, as a full cache is cleared.
type cachedFeed struct {
	pool []Record
}

func (f *cachedFeed) record(path []string, at time.Time) Record {
	r, ok := f.find(path, slices.Equal[[]string])
	if !ok {
		r, ok = f.find(path, func(long, p []string) bool { return len(long) > len(p) && slices.Equal(long[:len(p)], p) })
		if ok && len(path) > 0 {
			r.Path = r.Path[:len(path)]
		} else {
			r = CachedRecord(slices.Clone(path), time.Time{}, uint32(len(f.pool)%3))
		}
		f.pool = append(f.pool, r)
	}
	r.Time = at
	return r
}

// find returns the first pooled record whose path matches path.
func (f *cachedFeed) find(path []string, match func(pooled, path []string) bool) (Record, bool) {
	for _, r := range f.pool {
		if match(r.Path, path) {
			return r, true
		}
	}
	return Record{}, false
}

func (f *cachedFeed) clear() { f.pool = nil }
