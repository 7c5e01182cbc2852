package experiments

import (
	"math"
	"testing"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
	"tiresias/internal/refmethod"
)

// hhBits is a heavy hitter as a run reproduces it: identity and the
// exact bits of its values.
type hhBits struct {
	id               int
	key              hierarchy.Key
	actual, forecast uint64
}

// replayTrace collects a fresh Quick CCD workload and replays it
// through a fresh engine, recording every instance's heavy hitters.
func replayTrace(t *testing.T, sta bool) [][]hhBits {
	t.Helper()
	p := Quick()
	w, err := CCDNetWorkload(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := algo.Config{
		Theta:         p.Theta,
		WindowLen:     p.WindowLen,
		Rule:          algo.LongTermHistory,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
	}
	var e algo.Engine
	if sta {
		e, err = algo.NewSTA(cfg)
	} else {
		e, err = algo.NewADA(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var trace [][]hhBits
	err = Replay(e, w.Tree, w.Units, p.WindowLen, func(st *algo.StepState) error {
		row := make([]hhBits, len(st.HeavyHitters))
		for i, hh := range st.HeavyHitters {
			row[i] = hhBits{hh.ID, hh.Key, math.Float64bits(hh.Actual), math.Float64bits(hh.Forecast)}
		}
		trace = append(trace, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// alarmTrace runs the Table VI control chart over a fresh collection
// of the Table V workload.
func alarmTrace(t *testing.T) []refmethod.Alarm {
	t.Helper()
	p := Quick()
	w, _, err := table5Workload(p)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := refmethod.New(refmethod.Config{K: 3, Window: p.WindowLen / 2, MinSigma: 1}, w.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var out []refmethod.Alarm
	for _, u := range w.Units {
		out = append(out, chart.Observe(u)...)
	}
	return out
}

// TestReferenceRunsBitReproducible replays the same generated stream
// several times. Every run must number the tree alike and produce the
// same heavy hitters with bit-identical actuals and forecasts, and the
// reference chart the same alarms: a reproduced table must not depend
// on the run that printed it.
func TestReferenceRunsBitReproducible(t *testing.T) {
	const runs = 4
	for _, eng := range []struct {
		name string
		sta  bool
	}{{"ADA", false}, {"STA", true}} {
		t.Run(eng.name, func(t *testing.T) {
			want := replayTrace(t, eng.sta)
			for run := 1; run < runs; run++ {
				got := replayTrace(t, eng.sta)
				if len(got) != len(want) {
					t.Fatalf("run %d: %d instances, first run %d", run, len(got), len(want))
				}
				for inst := range want {
					if len(got[inst]) != len(want[inst]) {
						t.Fatalf("run %d instance %d: %d heavy hitters, first run %d", run, inst, len(got[inst]), len(want[inst]))
					}
					for i, hh := range want[inst] {
						if got[inst][i] != hh {
							t.Fatalf("run %d instance %d: heavy hitter %+v, first run %+v", run, inst, got[inst][i], hh)
						}
					}
				}
			}
		})
	}
	t.Run("refmethod", func(t *testing.T) {
		want := alarmTrace(t)
		if len(want) == 0 {
			t.Fatal("the chart raised no alarm: nothing to compare")
		}
		for run := 1; run < runs; run++ {
			got := alarmTrace(t)
			if len(got) != len(want) {
				t.Fatalf("run %d: %d alarms, first run %d", run, len(got), len(want))
			}
			for i, a := range want {
				g := got[i]
				if g.Key != a.Key || g.Instance != a.Instance ||
					math.Float64bits(g.Value) != math.Float64bits(a.Value) ||
					math.Float64bits(g.Mean) != math.Float64bits(a.Mean) ||
					math.Float64bits(g.Sigma) != math.Float64bits(a.Sigma) {
					t.Fatalf("run %d alarm %d: %+v, first run %+v", run, i, g, a)
				}
			}
		}
	})
}
