// Package experiments reproduces every table and figure of the
// paper's evaluation (§II measurement characterization and §VII
// evaluation) on the synthetic workloads of package gen. Each
// experiment returns a result value with a Render method that prints
// rows in the shape of the paper's tables; cmd/tiresias-bench and the
// repository-level benchmarks both drive this package.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the quantities that must match are the *shapes*: who wins, by
// roughly what factor, and where the qualitative behaviours (error
// decay, seasonality peaks, level distributions) appear.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/checkpoint"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// Profile scales the experiments: Quick is sized for CI and unit
// benchmarks, Full approaches the paper's dimensions. Every engine an
// experiment runs is the profile's detector, built by Config.Engine.
type Profile struct {
	// Config is the detector: checkpoint.DefaultConfig, the one a
	// server runs, with the profile's overrides. Its WindowLen is the
	// history window ℓ the workloads warm up on, its Delta the
	// timeunit size.
	checkpoint.Config
	// Name labels the profile in output.
	Name string
	// NetScale scales the CCD/SCD network fan-outs (1 = paper size).
	NetScale float64
	// RunUnits is the number of detection timeunits after warmup.
	RunUnits int
	// BaseRate is the expected records per timeunit.
	BaseRate float64
	// Seed drives all generation.
	Seed int64
}

// Quick returns the CI-sized profile (seconds per experiment). Two
// 96-unit days do not fit in its ℓ = 96, so it forecasts with no
// period: EWMA(0.5).
func Quick() Profile {
	cfg := checkpoint.DefaultConfig()
	cfg.WindowLen, cfg.Theta = 96, 8
	cfg.AutoSeason, cfg.HWAlpha = false, 0.5
	return Profile{Config: cfg, Name: "quick", NetScale: 0.08, RunUnits: 48, BaseRate: 120, Seed: 1}
}

// Full returns a profile close to the paper's scale (minutes per
// experiment): a one-week window forecasting with a one-day season.
// It screens with DT = θ.
func Full() Profile {
	cfg := checkpoint.DefaultConfig()
	cfg.Theta, cfg.Thresholds.DT = 15, 15
	cfg.AutoSeason, cfg.SeasonPeriods = false, []int{96}
	return Profile{Config: cfg, Name: "full", NetScale: 0.5, RunUnits: 192, BaseRate: 1200, Seed: 1}
}

// Workload couples generated records with their timeunit grouping.
type Workload struct {
	// Dataset is the generated stream; nil for a Collect result.
	Dataset *gen.Dataset
	// Tree holds every category the records named, interned in
	// record first-sight order, so its IDs are the same on every run.
	Tree *hierarchy.Tree
	// Units are the timeunits, oldest first, as DenseUnit.Pairs
	// copies over Tree.
	Units []*algo.DenseUnit
	// Start is the start time of the first unit.
	Start time.Time
}

// TotalRecords returns the record count.
func (w *Workload) TotalRecords() int { return len(w.Dataset.Records) }

// monday is the canonical start (a Monday, so weekly patterns align).
func monday() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) }

// CCDNetWorkload generates a CCD network-path workload (the dimension
// §VII-B evaluates on) with the given injected anomalies.
func CCDNetWorkload(p Profile, anoms []gen.AnomalySpec) (*Workload, error) {
	cfg := gen.Config{
		Shape:           gen.CCDNetworkShape(p.NetScale),
		Start:           monday(),
		Units:           p.WindowLen + p.RunUnits,
		Delta:           p.Delta,
		BaseRate:        p.BaseRate,
		DiurnalStrength: 0.6,
		WeeklyStrength:  0.35,
		ZipfS:           0.9,
		Seed:            p.Seed,
		Anomalies:       anoms,
	}
	return buildWorkload(cfg)
}

// CCDTroubleWorkload generates the trouble-description dimension with
// Table I's first-level mix.
func CCDTroubleWorkload(p Profile) (*Workload, error) {
	cfg := gen.Config{
		Shape:           gen.CCDTroubleShape(),
		Mix:             gen.CCDTicketMix(),
		Start:           monday(),
		Units:           p.WindowLen + p.RunUnits,
		Delta:           p.Delta,
		BaseRate:        p.BaseRate,
		DiurnalStrength: 0.6,
		WeeklyStrength:  0.35,
		ZipfS:           0.9,
		Seed:            p.Seed + 10,
	}
	return buildWorkload(cfg)
}

// SCDWorkload generates the set-top-box crash workload: larger
// hierarchy, single (daily) seasonality, lower variance (§VII-A
// "Results for SCD").
func SCDWorkload(p Profile) (*Workload, error) {
	cfg := gen.Config{
		Shape:           gen.SCDNetworkShape(p.NetScale),
		Start:           monday(),
		Units:           p.WindowLen + p.RunUnits,
		Delta:           p.Delta,
		BaseRate:        p.BaseRate,
		DiurnalStrength: 0.35,
		WeeklyStrength:  0,
		ZipfS:           0.6,
		Seed:            p.Seed + 20,
	}
	return buildWorkload(cfg)
}

func buildWorkload(cfg gen.Config) (*Workload, error) {
	d, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	w, err := Collect(stream.NewSliceSource(d.Records), cfg.Delta, cfg.Units)
	if err != nil {
		return nil, err
	}
	w.Dataset = d
	return w, nil
}

// Collect drains a Source into consecutive timeunits of size delta,
// appending empty units until there are at least pad of them, so a run
// covers the generated span even when its last units saw no record.
// It windows through a fresh tree, returned as the Workload's Tree,
// and buffers the whole stream: it feeds the reference harnesses (STA,
// package shhh, the 3σ reference method, Replay), never a detector.
func Collect(src stream.Source, delta time.Duration, pad int) (*Workload, error) {
	win, err := stream.NewWindower(delta)
	if err != nil {
		return nil, err
	}
	w := &Workload{Tree: hierarchy.New()}
	win.BindTree(w.Tree)
	seen := false
	for {
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		done, err := win.ObserveDense(r)
		if err != nil {
			return nil, err
		}
		if !seen {
			w.Start = win.Start()
			seen = true
		}
		for _, u := range done {
			w.Units = append(w.Units, u.Pairs())
		}
	}
	if seen {
		w.Units = append(w.Units, win.FlushDense().Pairs())
	}
	for len(w.Units) < pad {
		w.Units = append(w.Units, &algo.DenseUnit{})
	}
	return w, nil
}

// Replay drives e over collected units: Init with units[:warm], then
// StepDense with every later unit. Before it hands e a unit (or the
// warm window) it adds to e.Tree() the nodes of tree up to the unit's
// largest ID, in ID order, so e's node IDs are tree's and its tree
// grows at the unit that first names a category — as it would under a
// windower. An engine built on tree itself (Config.Tree) gets nothing
// added. each, when non-nil, sees every instance's state; instance 0
// is the warm window, instance k the unit units[warm+k-1].
func Replay(e algo.Engine, tree *hierarchy.Tree, units []*algo.DenseUnit, warm int, each func(*algo.StepState) error) error {
	grow := func(last int) error {
		et := e.Tree()
		for id := et.Len(); id <= last; id++ {
			if got, _ := et.AddChild(tree.Parent(id), tree.Label(id)); got != id {
				return fmt.Errorf("experiments: %s tree diverges from the collected tree at node %d (%s)", e.Name(), id, tree.Key(id))
			}
		}
		return nil
	}
	if each == nil {
		each = func(*algo.StepState) error { return nil }
	}
	last := -1
	for _, u := range units[:warm] {
		last = max(last, u.MaxID())
	}
	if err := grow(last); err != nil {
		return err
	}
	st, err := e.Init(units[:warm])
	if err != nil {
		return err
	}
	if err := each(st); err != nil {
		return err
	}
	// StepDense reads counts through a unit's sparse index, which
	// Pairs copies lack: each unit is stepped through an indexed copy.
	var du algo.DenseUnit
	for _, u := range units[warm:] {
		if err := grow(u.MaxID()); err != nil {
			return err
		}
		du.Reset()
		for i, id := range u.IDs() {
			du.Add(int(id), u.Values()[i])
		}
		if st, err = e.StepDense(&du); err != nil {
			return err
		}
		if err := each(st); err != nil {
			return err
		}
	}
	return nil
}

// engineFor builds the named engine ("STA", or ADA) of p's detector
// with the given split rule and reference depth, its seasonality taken
// from w's warm-up window.
func engineFor(name string, p Profile, w *Workload, rule algo.SplitRule, refLevels int) (algo.Engine, error) {
	cfg := p.Config
	cfg.Rule, cfg.RefLevels = rule, refLevels
	ec := cfg.Engine(cfg.Seasonality(w.Units[:p.WindowLen]))
	if name == "STA" {
		return algo.NewSTA(ec)
	}
	return algo.NewADA(ec)
}

// table is a tiny text-table renderer shared by all experiments.
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render draws the table with aligned columns.
func (t *table) Render() string {
	var b strings.Builder
	b.WriteString(t.title)
	b.WriteString("\n")
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if w := widths[i] - len(c); w > 0 {
				b.WriteString(strings.Repeat(" ", w))
			}
		}
		b.WriteString("\n")
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
