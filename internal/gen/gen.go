// Package gen synthesizes operational-data workloads with the
// statistical shape the paper measures on the proprietary AT&T
// datasets (§II): hierarchies shaped per Table II, a first-level
// ticket mix per Table I, Poisson arrivals modulated by diurnal and
// weekly profiles (Fig. 2), Zipf popularity across categories (the
// sparsity of Fig. 1), and injected anomalies that serve as ground
// truth for the evaluation harnesses.
//
// All generation is deterministic given the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// Shape describes a regular hierarchy: Degrees[k] is the fan-out of
// every node at depth k (so Degrees has one entry per non-leaf level).
type Shape struct {
	// Degrees lists per-level fan-outs, root first.
	Degrees []int
	// LevelPrefix names each generated level for readable labels
	// ("vho", "io", ...); padded with "n" when shorter than Degrees.
	LevelPrefix []string
}

// Leaves enumerates all leaf paths of the shape.
func (s Shape) Leaves() [][]string {
	var out [][]string
	var walk func(prefix []string, depth int)
	walk = func(prefix []string, depth int) {
		if depth == len(s.Degrees) {
			out = append(out, append([]string(nil), prefix...))
			return
		}
		name := "n"
		if depth < len(s.LevelPrefix) {
			name = s.LevelPrefix[depth]
		}
		for i := 0; i < s.Degrees[depth]; i++ {
			walk(append(prefix, name+strconv.Itoa(i)), depth+1)
		}
	}
	walk(nil, 0)
	return out
}

// NumLeaves returns the number of leaves without materializing them.
func (s Shape) NumLeaves() int {
	n := 1
	for _, d := range s.Degrees {
		n *= d
	}
	return n
}

// CCDTroubleShape reproduces Table II's trouble-description hierarchy:
// depth 5, typical degrees 9/6/3/5.
func CCDTroubleShape() Shape {
	return Shape{
		Degrees:     []int{9, 6, 3, 5},
		LevelPrefix: []string{"cat", "sub", "sym", "act"},
	}
}

// CCDNetworkShape reproduces Table II's CCD network-path hierarchy:
// depth 5, typical degrees 61/5/6/24 (the first level is the set of
// VHOs under the national SHO root). scale in (0,1] shrinks the two
// large fan-outs for fast test runs; scale=1 is the paper's shape.
func CCDNetworkShape(scale float64) Shape {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	d1 := int(math.Max(2, math.Round(61*scale)))
	d4 := int(math.Max(2, math.Round(24*scale)))
	return Shape{
		Degrees:     []int{d1, 5, 6, d4},
		LevelPrefix: []string{"vho", "io", "co", "dslam"},
	}
}

// SCDNetworkShape reproduces Table II's SCD hierarchy: depth 4,
// typical degrees 2000/30/6. scale shrinks the top fan-out.
func SCDNetworkShape(scale float64) Shape {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	d1 := int(math.Max(2, math.Round(2000*scale)))
	return Shape{
		Degrees:     []int{d1, 30, 6},
		LevelPrefix: []string{"co", "dslam", "stb"},
	}
}

// MixEntry is one first-level category share (Table I).
type MixEntry struct {
	Name  string
	Share float64
}

// CCDTicketMix returns Table I's first-level distribution of customer
// care calls.
func CCDTicketMix() []MixEntry {
	return []MixEntry{
		{Name: "TV", Share: 0.3959},
		{Name: "AllProducts", Share: 0.2671},
		{Name: "Internet", Share: 0.1004},
		{Name: "Wireless", Share: 0.0926},
		{Name: "Phone", Share: 0.0846},
		{Name: "Email", Share: 0.0359},
		{Name: "RemoteControl", Share: 0.0235},
	}
}

// AnomalyShape controls the envelope of an injected anomaly over its
// span. The paper observes both short square spikes (<30 min) and
// long-lived events (>5 h) with gradual build-up and decay (Fig. 2).
type AnomalyShape int

const (
	// ShapeSquare injects a constant extra rate (default).
	//tiresias:ignore deadexport (the AnomalyShape zero value: selected by leaving Shape unset)
	ShapeSquare AnomalyShape = iota
	// ShapeRamp ramps linearly from zero to the full rate over the
	// span — a slowly escalating outage.
	ShapeRamp
	// ShapeDecay starts at the full rate and decays exponentially —
	// an incident with a fix rolling out.
	ShapeDecay
)

// String implements fmt.Stringer.
func (s AnomalyShape) String() string {
	switch s {
	case ShapeRamp:
		return "ramp"
	case ShapeDecay:
		return "decay"
	default:
		return "square"
	}
}

// AnomalySpec injects extra traffic at a node over a span of
// timeunits. The injected rate is spread uniformly over the leaves
// under the node.
type AnomalySpec struct {
	// Path locates the node (may be interior).
	Path []string `json:"path"`
	// StartUnit and EndUnit bound the anomaly, inclusive start /
	// exclusive end, in timeunit indices from the dataset start.
	StartUnit int `json:"startUnit"`
	EndUnit   int `json:"endUnit"`
	// ExtraPerUnit is the additional expected record count per
	// timeunit during the anomaly (the peak rate for shaped
	// anomalies).
	ExtraPerUnit float64 `json:"extraPerUnit"`
	// Shape selects the rate envelope; zero value is a square pulse.
	Shape AnomalyShape `json:"shape"`
}

// RateAt returns the expected extra rate at timeunit u (0 outside the
// span).
func (a AnomalySpec) RateAt(u int) float64 {
	if u < a.StartUnit || u >= a.EndUnit {
		return 0
	}
	span := a.EndUnit - a.StartUnit
	switch a.Shape {
	case ShapeRamp:
		return a.ExtraPerUnit * float64(u-a.StartUnit+1) / float64(span)
	case ShapeDecay:
		// Halve roughly every quarter of the span.
		quarter := float64(span) / 4
		if quarter < 1 {
			quarter = 1
		}
		k := float64(u - a.StartUnit)
		return a.ExtraPerUnit * pow2(-k/quarter)
	default:
		return a.ExtraPerUnit
	}
}

func pow2(x float64) float64 { return math.Exp2(x) }

// Key returns the anomaly's category key.
func (a AnomalySpec) Key() hierarchy.Key { return hierarchy.KeyOf(a.Path) }

// ChurnSpec retires or births a subtree of leaves mid-run — the
// hierarchy cardinality churn of operational data, where DSLAMs are
// deployed and decommissioned while the detector runs. Leaves under
// Path emit baseline traffic only in units [BornUnit, DieUnit); the
// displaced probability mass is renormalized over the remaining
// active leaves, so a birth or death shifts every other leaf's rate
// — the adversarial part. When several specs cover the same leaf,
// the last one in Config.Churn wins.
type ChurnSpec struct {
	// Path locates the churned subtree (may be a single leaf).
	Path []string `json:"path"`
	// BornUnit is the first unit (inclusive) the subtree emits;
	// 0 means active from the start.
	BornUnit int `json:"bornUnit"`
	// DieUnit is the unit (exclusive) the subtree stops emitting;
	// <= 0 means it never dies.
	DieUnit int `json:"dieUnit"`
}

// Config parameterizes a synthetic dataset.
type Config struct {
	// Shape is the category hierarchy to populate.
	Shape Shape
	// Mix optionally reweights first-level subtrees (Table I); when
	// nil all subtrees share mass per the Zipf popularity alone.
	Mix []MixEntry
	// Start is the timestamp of the first timeunit.
	Start time.Time
	// Units is the number of timeunits to generate.
	Units int
	// Delta is the timeunit size.
	Delta time.Duration
	// BaseRate is the expected number of records per timeunit at
	// the seasonal average.
	BaseRate float64
	// DiurnalStrength in [0,1) scales the daily swing (peak ≈ 4 PM,
	// trough ≈ 4 AM, as measured in Fig. 2).
	DiurnalStrength float64
	// WeeklyStrength in [0,1) scales the weekend dip.
	WeeklyStrength float64
	// TrendPerUnit drifts the base rate linearly: unit u runs at
	// BaseRate·(1 + TrendPerUnit·u), floored at zero. Seasonal
	// forecasting must absorb the drift without flagging it.
	TrendPerUnit float64
	// ZipfS is the popularity skew across leaves (s=0 uniform; the
	// operational data of Fig. 1 resembles s ≈ 1).
	ZipfS float64
	// Anomalies are injected on top of the seasonal baseline.
	Anomalies []AnomalySpec
	// Churn births and retires leaf subtrees mid-run.
	Churn []ChurnSpec
	// Seed drives all randomness.
	Seed int64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Shape.Degrees) == 0 {
		return fmt.Errorf("gen: empty shape")
	}
	for _, d := range c.Shape.Degrees {
		if d < 1 {
			return fmt.Errorf("gen: degree %d < 1", d)
		}
	}
	if c.Units <= 0 {
		return fmt.Errorf("gen: Units must be > 0, got %d", c.Units)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("gen: Delta must be > 0, got %v", c.Delta)
	}
	if c.BaseRate < 0 {
		return fmt.Errorf("gen: BaseRate must be >= 0, got %v", c.BaseRate)
	}
	if c.DiurnalStrength < 0 || c.DiurnalStrength >= 1 {
		return fmt.Errorf("gen: DiurnalStrength must be in [0,1), got %v", c.DiurnalStrength)
	}
	if c.WeeklyStrength < 0 || c.WeeklyStrength >= 1 {
		return fmt.Errorf("gen: WeeklyStrength must be in [0,1), got %v", c.WeeklyStrength)
	}
	for i, a := range c.Anomalies {
		if a.StartUnit < 0 || a.EndUnit > c.Units || a.StartUnit >= a.EndUnit {
			return fmt.Errorf("gen: anomaly %d span [%d,%d) out of [0,%d)", i, a.StartUnit, a.EndUnit, c.Units)
		}
		if a.ExtraPerUnit <= 0 {
			return fmt.Errorf("gen: anomaly %d rate %v <= 0", i, a.ExtraPerUnit)
		}
	}
	for i, ch := range c.Churn {
		if ch.BornUnit < 0 || ch.BornUnit >= c.Units {
			return fmt.Errorf("gen: churn %d born unit %d out of [0,%d)", i, ch.BornUnit, c.Units)
		}
		if ch.DieUnit > 0 && ch.DieUnit <= ch.BornUnit {
			return fmt.Errorf("gen: churn %d dies at %d before born at %d", i, ch.DieUnit, ch.BornUnit)
		}
	}
	return nil
}

// Dataset is a generated workload with its injected ground truth.
type Dataset struct {
	// Records are in time order.
	Records []stream.Record
	// Truth lists the injected anomalies.
	Truth []AnomalySpec
	// Leaves enumerates the hierarchy's leaf paths.
	Leaves [][]string
	// Config echoes the generating configuration.
	Config Config
}

// Profile returns the seasonal modulation factor at time ts: the
// product of a diurnal sinusoid peaking at 16:00 local (UTC here) and
// a weekly factor suppressing Saturday and Sunday.
func Profile(ts time.Time, diurnal, weekly float64) float64 {
	hour := float64(ts.Hour()) + float64(ts.Minute())/60
	day := 1 + diurnal*math.Cos(2*math.Pi*(hour-16)/24)
	wk := 1.0
	switch ts.Weekday() {
	case time.Saturday, time.Sunday:
		wk = 1 - weekly
	default:
		wk = 1
	}
	return day * wk
}

// Generate produces a dataset.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	leaves := cfg.Shape.Leaves()
	renameFirstLevel(leaves, cfg.Mix)

	weights := leafWeights(cfg, leaves, rng)
	cum := cumulative(weights)

	// Pre-index leaves under each anomaly node.
	anomalyLeaves := make([][]int, len(cfg.Anomalies))
	for i, a := range cfg.Anomalies {
		k := a.Key()
		for j, leaf := range leaves {
			if k.IsAncestorOf(hierarchy.KeyOf(leaf)) {
				anomalyLeaves[i] = append(anomalyLeaves[i], j)
			}
		}
		if len(anomalyLeaves[i]) == 0 {
			return nil, fmt.Errorf("gen: anomaly %d path %v matches no leaf", i, a.Path)
		}
	}

	churn := newChurnState(cfg, leaves)

	ds := &Dataset{Truth: cfg.Anomalies, Leaves: leaves, Config: cfg}
	for u := 0; u < cfg.Units; u++ {
		unitCum, active := churn.at(u, weights, cum)
		unitStart := cfg.Start.Add(time.Duration(u) * cfg.Delta)
		lambda := cfg.BaseRate * Profile(unitStart, cfg.DiurnalStrength, cfg.WeeklyStrength)
		if trend := 1 + cfg.TrendPerUnit*float64(u); trend > 0 {
			lambda *= trend
		} else {
			lambda = 0
		}
		if active {
			n := poisson(rng, lambda)
			for i := 0; i < n; i++ {
				leaf := leaves[pick(unitCum, rng.Float64())]
				ds.Records = append(ds.Records, stream.Record{
					Path: leaf,
					Time: unitStart.Add(time.Duration(rng.Float64() * float64(cfg.Delta))),
				})
			}
		}
		for ai, a := range cfg.Anomalies {
			rate := a.RateAt(u)
			if rate <= 0 {
				continue
			}
			extra := poisson(rng, rate)
			pool := churn.pool(u, anomalyLeaves[ai])
			for i := 0; i < extra; i++ {
				leaf := leaves[pool[rng.Intn(len(pool))]]
				ds.Records = append(ds.Records, stream.Record{
					Path: leaf,
					Time: unitStart.Add(time.Duration(rng.Float64() * float64(cfg.Delta))),
				})
			}
		}
	}
	slices.SortStableFunc(ds.Records, func(a, b stream.Record) int { return a.Time.Compare(b.Time) })
	return ds, nil
}

// renameFirstLevel replaces the first len(mix) first-level labels with
// the mix category names (in enumeration order), so the generated
// first-level distribution is directly comparable to Table I.
func renameFirstLevel(leaves [][]string, mix []MixEntry) {
	if len(mix) == 0 {
		return
	}
	rename := make(map[string]string)
	next := 0
	for _, leaf := range leaves {
		if _, ok := rename[leaf[0]]; !ok {
			if next < len(mix) {
				rename[leaf[0]] = mix[next].Name
			} else {
				rename[leaf[0]] = leaf[0]
			}
			next++
		}
		leaf[0] = rename[leaf[0]]
	}
}

// leafWeights assigns Zipf popularity across leaves, optionally
// reweighted so first-level subtrees match the configured mix. Extra
// first-level subtrees beyond the mix entries share a small residual
// (0.5% each), mirroring Table I's long tail.
func leafWeights(cfg Config, leaves [][]string, rng *rand.Rand) []float64 {
	n := len(leaves)
	// Zipf over a random permutation so heavy leaves scatter across
	// the hierarchy.
	perm := rng.Perm(n)
	w := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		rank := float64(perm[i] + 1)
		w[i] = 1 / math.Pow(rank, cfg.ZipfS)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	if len(cfg.Mix) == 0 {
		return w
	}
	shareOf := make(map[string]float64, len(cfg.Mix))
	for _, m := range cfg.Mix {
		shareOf[m.Name] = m.Share
	}
	// Collect group masses keyed by (renamed) first-level label.
	groupMass := make(map[string]float64)
	for i, leaf := range leaves {
		groupMass[leaf[0]] += w[i]
	}
	const residualShare = 0.005
	var shareTotal float64
	groupShare := make(map[string]float64, len(groupMass))
	for label := range groupMass {
		s, ok := shareOf[label]
		if !ok {
			s = residualShare
		}
		groupShare[label] = s
		shareTotal += s
	}
	for i, leaf := range leaves {
		g := leaf[0]
		if groupMass[g] > 0 {
			w[i] = w[i] / groupMass[g] * groupShare[g] / shareTotal
		}
	}
	return w
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	var s float64
	for i, v := range w {
		s += v
		cum[i] = s
	}
	if s > 0 {
		for i := range cum {
			cum[i] /= s
		}
	}
	return cum
}

// pick binary-searches the cumulative distribution.
func pick(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// poisson samples a Poisson variate; Knuth's method for small λ and a
// normal approximation beyond.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// churnState tracks which leaves are active per unit and lazily
// rebuilds the masked cumulative distribution when the active set
// changes — only scenarios with Config.Churn pay for it.
type churnState struct {
	// born[j]/die[j] bound leaf j's activity window ([0, units) when
	// no churn spec covers it).
	born, die []int
	// cum is the masked cumulative distribution of the current
	// activity epoch; cumAt is the unit it was built for (-1 = never).
	cum   []float64
	cumAt int
	// boundaries marks units at which some leaf's activity flips.
	boundaries map[int]bool
	active     bool // some leaf is active in the current epoch
}

// newChurnState indexes cfg.Churn over the leaves; nil when the
// config has no churn (the common fast path).
func newChurnState(cfg Config, leaves [][]string) *churnState {
	if len(cfg.Churn) == 0 {
		return nil
	}
	s := &churnState{
		born:       make([]int, len(leaves)),
		die:        make([]int, len(leaves)),
		cumAt:      -1,
		boundaries: map[int]bool{0: true},
	}
	for j := range leaves {
		s.die[j] = cfg.Units
	}
	for _, ch := range cfg.Churn {
		k := hierarchy.KeyOf(ch.Path)
		for j, leaf := range leaves {
			if !k.IsAncestorOf(hierarchy.KeyOf(leaf)) {
				continue
			}
			s.born[j] = ch.BornUnit
			if ch.DieUnit > 0 {
				s.die[j] = ch.DieUnit
			} else {
				s.die[j] = cfg.Units
			}
		}
	}
	for j := range leaves {
		s.boundaries[s.born[j]] = true
		s.boundaries[s.die[j]] = true
	}
	return s
}

// at returns the cumulative distribution to sample baseline leaves
// from at unit u, and whether any leaf is active. A nil receiver (no
// churn) passes the precomputed distribution through.
func (s *churnState) at(u int, weights, cum []float64) ([]float64, bool) {
	if s == nil {
		return cum, true
	}
	if s.cumAt >= 0 && !s.boundaries[u] {
		return s.cum, s.active
	}
	masked := make([]float64, len(weights))
	s.active = false
	for j, w := range weights {
		if s.born[j] <= u && u < s.die[j] {
			masked[j] = w
			s.active = true
		}
	}
	s.cum = cumulative(masked)
	s.cumAt = u
	return s.cum, s.active
}

// pool restricts an anomaly's leaf pool to the leaves active at unit
// u, falling back to the full pool when the anomaly targets an
// entirely inactive subtree (the injection still happens — a burst on
// a retired node is itself anomalous).
func (s *churnState) pool(u int, full []int) []int {
	if s == nil {
		return full
	}
	var alive []int
	for _, j := range full {
		if s.born[j] <= u && u < s.die[j] {
			alive = append(alive, j)
		}
	}
	if len(alive) == 0 {
		return full
	}
	return alive
}

// NewRand returns the canonical deterministic source for a seed: every
// generator and scenario transform draws from an explicitly seeded
// *rand.Rand like this one, never from the global source, so a seed
// pins the full workload byte-for-byte.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// unitIndex places a record time on the unit grid anchored at start.
func unitIndex(at, start time.Time, delta time.Duration) int {
	return int(at.Sub(start) / delta)
}

// DuplicateUnder inserts extra copies of every record under path in
// units [startUnit, endUnit) — a duplicate flood, the count inflation
// produced by a retrying upstream. Each duplicate is emitted
// immediately after its original at the identical timestamp, so the
// result stays in time order. Returns the new slice and the number of
// duplicates inserted.
func DuplicateUnder(recs []stream.Record, path []string, start time.Time, delta time.Duration, startUnit, endUnit, times int) ([]stream.Record, int) {
	if times <= 0 {
		return recs, 0
	}
	k := hierarchy.KeyOf(path)
	out := make([]stream.Record, 0, len(recs))
	dups := 0
	for _, r := range recs {
		out = append(out, r)
		u := unitIndex(r.Time, start, delta)
		if u < startUnit || u >= endUnit || !k.IsAncestorOf(hierarchy.KeyOf(r.Path)) {
			continue
		}
		for i := 0; i < times; i++ {
			out = append(out, r)
		}
		dups += times
	}
	return out, dups
}

// ShuffleWithinUnits permutes the arrival order of records inside each
// timeunit, leaving cross-unit order intact: legal but adversarial
// input for ingest paths, since within a unit the windower accepts any
// order. All randomness comes from the supplied rng.
func ShuffleWithinUnits(rng *rand.Rand, recs []stream.Record, start time.Time, delta time.Duration) {
	lo := 0
	for lo < len(recs) {
		u := unitIndex(recs[lo].Time, start, delta)
		hi := lo + 1
		for hi < len(recs) && unitIndex(recs[hi].Time, start, delta) == u {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) {
			recs[lo+i], recs[lo+j] = recs[lo+j], recs[lo+i]
		})
		lo = hi
	}
}

// DisplaceAcrossBoundaries moves up to n records one position across
// their following unit boundary: the last record of a unit arrives
// just after the first record of the next, so a windower that already
// advanced rejects it as out-of-order. This makes genuine
// out-of-order input (not just intra-unit shuffle) deterministically,
// for testing rejection accounting; returns how many records were
// displaced. Boundaries are chosen from rng.
func DisplaceAcrossBoundaries(rng *rand.Rand, recs []stream.Record, start time.Time, delta time.Duration, n int) int {
	var bounds []int // index of the first record of each unit (> 0)
	for i := 1; i < len(recs); i++ {
		if unitIndex(recs[i].Time, start, delta) != unitIndex(recs[i-1].Time, start, delta) {
			bounds = append(bounds, i)
		}
	}
	if len(bounds) == 0 || n <= 0 {
		return 0
	}
	rng.Shuffle(len(bounds), func(i, j int) { bounds[i], bounds[j] = bounds[j], bounds[i] })
	if n > len(bounds) {
		n = len(bounds)
	}
	for _, b := range bounds[:n] {
		recs[b-1], recs[b] = recs[b], recs[b-1]
	}
	return n
}

// FirstLevelDistribution tallies the share of records per first-level
// category (the Table I reproduction).
func (d *Dataset) FirstLevelDistribution() []MixEntry {
	counts := make(map[string]float64)
	for _, r := range d.Records {
		if len(r.Path) > 0 {
			counts[r.Path[0]]++
		}
	}
	total := float64(len(d.Records))
	out := make([]MixEntry, 0, len(counts))
	for name, c := range counts {
		out = append(out, MixEntry{Name: name, Share: c / total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}
