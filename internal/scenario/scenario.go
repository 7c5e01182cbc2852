// Package scenario is the detection-quality lab: adversarial
// synthetic workloads with injected, labeled ground truth, driven
// through the full public stack and scored against the labels with
// the evalx metrics. Where the perf gate (go run ./bench) locks in
// speed and the chaos suites lock in crash-safety, this package locks
// in detection quality — a future hot-path or pipeline PR that
// silently trades recall for throughput fails the accuracy gate.
//
// Every scenario is deterministic given a seed: the generator, the
// flood transforms, and the drivers draw all randomness from
// explicitly seeded sources, so two runs with the same seed produce
// byte-identical scorecards.
package scenario

import (
	"fmt"
	"time"

	"tiresias"
	"tiresias/internal/evalx"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
)

// Driver names the stack layer a scenario is scored through.
type Driver string

// The drivers cover the public surface end to end: the incremental
// single-detector Run loop, the sharded Manager's synchronous
// FeedBatch path, its pipelined Enqueue path, and the full
// httpserve+client wire round-trip.
const (
	DriverRun      Driver = "run"
	DriverManager  Driver = "manager"
	DriverPipeline Driver = "pipeline"
	DriverHTTP     Driver = "http"
)

// Stream is one generated stream of a scenario: a gen configuration
// plus optional adversarial ingest transforms applied after
// generation (duplicate floods, intra-unit shuffles, cross-boundary
// displacement).
type Stream struct {
	// Name is the Manager stream name ("default" works everywhere).
	Name string
	// Gen generates the stream's records and carries its ground
	// truth (Gen.Anomalies) and churn schedule.
	Gen gen.Config
	// DupPath, with DupTimes > 0, duplicates every record under the
	// path in units [DupStart, DupEnd) DupTimes extra times.
	DupPath          []string
	DupStart, DupEnd int
	DupTimes         int
	// Shuffle permutes arrival order within each timeunit.
	Shuffle bool
	// Displace moves up to this many records one position across
	// their following unit boundary — genuine out-of-order input the
	// ingest path must reject and account without poisoning the rest
	// of the batch.
	Displace int
}

// Scenario is one named adversarial workload with its detector
// operating point and the driver it is scored through.
type Scenario struct {
	// Name is the stable identifier compared across scorecards.
	Name string
	// Description says what the scenario stresses, for the report.
	Description string
	// Driver selects the stack layer.
	Driver Driver
	// WindowLen, Theta, Thresholds, SeasonalPeriod parameterize the
	// per-stream detectors; Delta comes from the streams' gen
	// configs (all streams of a scenario share one Delta and Start).
	WindowLen      int
	Theta          float64
	Thresholds     tiresias.Thresholds
	SeasonalPeriod int
	// Streams are the scenario's generated workloads.
	Streams []Stream
}

// Delta returns the scenario's shared timeunit size.
func (s *Scenario) Delta() time.Duration { return s.Streams[0].Gen.Delta }

// Start returns the scenario's shared stream start.
func (s *Scenario) Start() time.Time { return s.Streams[0].Gen.Start }

// Event is one anomaly occurrence, the unit of scoring: a stream, a
// hierarchy node, and a timeunit index from the scenario start.
type Event struct {
	Stream string
	Key    hierarchy.Key
	Unit   int
}

// start is the shared scenario epoch: a Monday at midnight, aligned
// to every Delta used here, mirroring the experiments package.
func start() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) }

// All returns the scenario suite. The seed pins every random choice;
// each stream derives its own generator seed from it so streams stay
// decorrelated but reproducible.
func All(seed int64) []*Scenario {
	mk := func(i, j int64) int64 { return seed + i*1009 + j*31 }
	sq := tiresias.DefaultThresholds()
	shape := gen.Shape{Degrees: []int{3, 3}, LevelPrefix: []string{"vho", "co"}}

	return []*Scenario{
		{
			Name:        "flash-crowd",
			Description: "square ticket spikes on two subtrees over a flat baseline (root Run loop)",
			Driver:      DriverRun,
			WindowLen:   36, Theta: 0.5, Thresholds: sq,
			Streams: []Stream{{
				Name: "default",
				Gen: gen.Config{
					Shape: shape, Start: start(), Units: 60, Delta: time.Minute,
					BaseRate: 60, ZipfS: 0.5, Seed: mk(0, 0),
					Anomalies: []gen.AnomalySpec{
						{Path: []string{"vho0"}, StartUnit: 40, EndUnit: 44, ExtraPerUnit: 200},
						{Path: []string{"vho1", "co1"}, StartUnit: 48, EndUnit: 52, ExtraPerUnit: 200},
					},
				},
			}},
		},
		{
			Name:        "cardinality-churn",
			Description: "leaves born and retired mid-run with renormalized mass, plus a spike on a churn-adjacent subtree (Manager FeedBatch)",
			Driver:      DriverManager,
			WindowLen:   36, Theta: 0.5, Thresholds: sq,
			Streams: []Stream{{
				Name: "ccd",
				Gen: gen.Config{
					Shape: shape, Start: start(), Units: 60, Delta: time.Minute,
					BaseRate: 60, ZipfS: 0.5, Seed: mk(1, 0),
					Churn: []gen.ChurnSpec{
						{Path: []string{"vho2"}, BornUnit: 0, DieUnit: 20},
						{Path: []string{"vho1", "co2"}, BornUnit: 30},
					},
					Anomalies: []gen.AnomalySpec{
						{Path: []string{"vho0"}, StartUnit: 42, EndUnit: 46, ExtraPerUnit: 200},
					},
				},
			}},
		},
		{
			Name:        "correlated-outage",
			Description: "one incident surfacing as simultaneous ticket surges on three streams (pipelined Manager, Block policy)",
			Driver:      DriverPipeline,
			WindowLen:   36, Theta: 0.5, Thresholds: sq,
			Streams: []Stream{
				{
					Name: "ccd",
					Gen: gen.Config{
						Shape: shape, Start: start(), Units: 58, Delta: time.Minute,
						BaseRate: 50, ZipfS: 0.5, Seed: mk(2, 0),
						Anomalies: []gen.AnomalySpec{
							{Path: []string{"vho1"}, StartUnit: 44, EndUnit: 48, ExtraPerUnit: 180},
						},
					},
				},
				{
					Name: "scd",
					Gen: gen.Config{
						Shape: shape, Start: start(), Units: 58, Delta: time.Minute,
						BaseRate: 50, ZipfS: 0.5, Seed: mk(2, 1),
						Anomalies: []gen.AnomalySpec{
							{Path: []string{"vho1"}, StartUnit: 44, EndUnit: 48, ExtraPerUnit: 180},
						},
					},
				},
				{
					Name: "calls",
					Gen: gen.Config{
						Shape: shape, Start: start(), Units: 58, Delta: time.Minute,
						BaseRate: 50, ZipfS: 0.5, Seed: mk(2, 2),
						Anomalies: []gen.AnomalySpec{
							{Path: []string{"vho1"}, StartUnit: 44, EndUnit: 48, ExtraPerUnit: 180},
						},
					},
				},
			},
		},
		{
			Name:        "seasonal-drift",
			Description: "diurnal baseline with a linear upward trend the forecaster must absorb; a ramped incident rides the peak (root Run loop)",
			Driver:      DriverRun,
			WindowLen:   48, Theta: 0.5, Thresholds: sq, SeasonalPeriod: 48,
			Streams: []Stream{{
				Name: "default",
				Gen: gen.Config{
					Shape: shape, Start: start(), Units: 120, Delta: 30 * time.Minute,
					BaseRate: 60, DiurnalStrength: 0.5, TrendPerUnit: 0.004,
					ZipfS: 0.5, Seed: mk(3, 0),
					Anomalies: []gen.AnomalySpec{
						{Path: []string{"vho2"}, StartUnit: 80, EndUnit: 86, ExtraPerUnit: 260, Shape: gen.ShapeRamp},
						{Path: []string{"vho0", "co0"}, StartUnit: 100, EndUnit: 104, ExtraPerUnit: 220},
					},
				},
			}},
		},
		{
			Name:        "dup-flood",
			Description: "duplicate flood tripling one subtree, intra-unit shuffle, and displaced out-of-order records the ingest path must skip without poisoning batches (Manager FeedBatch)",
			Driver:      DriverManager,
			WindowLen:   36, Theta: 0.5, Thresholds: sq,
			Streams: []Stream{{
				Name: "ccd",
				Gen: gen.Config{
					Shape: shape, Start: start(), Units: 60, Delta: time.Minute,
					BaseRate: 60, ZipfS: 0.5, Seed: mk(4, 0),
					Anomalies: []gen.AnomalySpec{
						{Path: []string{"vho0"}, StartUnit: 48, EndUnit: 52, ExtraPerUnit: 200},
					},
				},
				// The duplicate flood IS an anomaly: tripling vho2's
				// counts in units [40,44) must be detected like any
				// other surge, so it is also listed as truth below.
				DupPath: []string{"vho2"}, DupStart: 40, DupEnd: 44, DupTimes: 4,
				Shuffle:  true,
				Displace: 6,
			}},
		},
		{
			Name:        "wire-roundtrip",
			Description: "flash crowd ingested over the /v2 wire API and scored from the client's anomaly iterator (httpserve + client)",
			Driver:      DriverHTTP,
			WindowLen:   36, Theta: 0.5, Thresholds: sq,
			Streams: []Stream{{
				Name: "wire",
				Gen: gen.Config{
					Shape: shape, Start: start(), Units: 60, Delta: time.Minute,
					BaseRate: 60, ZipfS: 0.5, Seed: mk(5, 0),
					Anomalies: []gen.AnomalySpec{
						{Path: []string{"vho0"}, StartUnit: 40, EndUnit: 44, ExtraPerUnit: 200},
						{Path: []string{"vho2"}, StartUnit: 50, EndUnit: 54, ExtraPerUnit: 200},
					},
				},
			}},
		},
	}
}

// ByName returns the named scenario from All(seed), or an error
// listing the valid names.
func ByName(name string, seed int64) (*Scenario, error) {
	all := All(seed)
	for _, sc := range all {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, names)
}

// Truth enumerates the scenario's ground-truth events: one per
// (stream, anomaly node, timeunit) over each injected span, clipped
// to the detectable range — a detector warming up on the first
// WindowLen units cannot flag them, and no driver is required to
// flush the final partial unit, so truth is restricted to units in
// [WindowLen, Units-1). The dup-flood transform contributes truth
// over its span too: a duplicate flood is a real count surge.
func (s *Scenario) Truth() []Event {
	var out []Event
	for _, st := range s.Streams {
		spans := make([]gen.AnomalySpec, 0, len(st.Gen.Anomalies)+1)
		spans = append(spans, st.Gen.Anomalies...)
		if st.DupTimes > 0 {
			spans = append(spans, gen.AnomalySpec{
				Path: st.DupPath, StartUnit: st.DupStart, EndUnit: st.DupEnd,
			})
		}
		for _, a := range spans {
			lo, hi := a.StartUnit, a.EndUnit
			if lo < s.WindowLen {
				lo = s.WindowLen
			}
			if last := st.Gen.Units - 1; hi > last {
				hi = last
			}
			for u := lo; u < hi; u++ {
				out = append(out, Event{Stream: st.Name, Key: a.Key(), Unit: u})
			}
		}
	}
	return out
}

// Score compares detected events against the scenario's ground truth.
// A truth event is covered when any detection shares its stream and
// unit and is hierarchically related to it (ancestor or descendant —
// a surge injected at vho0 legitimately surfaces at the root above it
// and at the leaves below it). Covered truth counts TP, uncovered
// truth FN, and each distinct detection related to no truth event FP;
// precision, recall, and F1 then follow from the evalx confusion.
func (s *Scenario) Score(detected []Event) evalx.Confusion {
	truth := s.Truth()
	related := func(a, b Event) bool {
		return a.Stream == b.Stream && a.Unit == b.Unit &&
			(a.Key.IsAncestorOf(b.Key) || b.Key.IsAncestorOf(a.Key))
	}
	var c evalx.Confusion
	for _, t := range truth {
		covered := false
		for _, d := range detected {
			if related(t, d) {
				covered = true
				break
			}
		}
		if covered {
			c.TP++
		} else {
			c.FN++
		}
	}
	seen := make(map[Event]bool, len(detected))
	for _, d := range detected {
		if seen[d] {
			continue
		}
		seen[d] = true
		matched := false
		for _, t := range truth {
			if related(t, d) {
				matched = true
				break
			}
		}
		if !matched {
			c.FP++
		}
	}
	return c
}

// Records materializes one stream's workload: generation plus the
// configured adversarial transforms, all seeded from the gen config.
// The returned slice is in arrival order (which, after Shuffle or
// Displace, is deliberately not time order).
func (st *Stream) Records() ([]tiresias.Record, error) {
	d, err := gen.Generate(st.Gen)
	if err != nil {
		return nil, err
	}
	recs := d.Records
	if st.DupTimes > 0 {
		recs, _ = gen.DuplicateUnder(recs, st.DupPath, st.Gen.Start, st.Gen.Delta, st.DupStart, st.DupEnd, st.DupTimes)
	}
	if st.Shuffle {
		gen.ShuffleWithinUnits(gen.NewRand(st.Gen.Seed+1), recs, st.Gen.Start, st.Gen.Delta)
	}
	if st.Displace > 0 {
		gen.DisplaceAcrossBoundaries(gen.NewRand(st.Gen.Seed+2), recs, st.Gen.Start, st.Gen.Delta, st.Displace)
	}
	return recs, nil
}
