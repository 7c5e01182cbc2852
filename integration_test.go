package tiresias_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/httpserve"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/evalx"
	"tiresias/internal/experiments"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
	"tiresias/internal/refmethod"
	"tiresias/internal/stream"
)

// TestPipelineGenToHTTP is the whole-system smoke: generate → serialize
// → parse → window → warm → detect → JSON-lines file → served index →
// query over HTTP.
func TestPipelineGenToHTTP(t *testing.T) {
	const warm = 96
	cfg := gen.Config{
		Shape:           gen.CCDNetworkShape(0.05),
		Start:           time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC),
		Units:           warm + 32,
		Delta:           15 * time.Minute,
		BaseRate:        80,
		DiurnalStrength: 0.5,
		ZipfS:           0.9,
		Seed:            17,
		Anomalies: []gen.AnomalySpec{{
			Path: []string{"vho1", "io2"}, StartUnit: warm + 10, EndUnit: warm + 14, ExtraPerUnit: 350,
		}},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Serialize to the CSVish wire format and re-parse, as the CLI
	// pipeline does.
	var buf bytes.Buffer
	for _, r := range ds.Records {
		buf.WriteString(stream.MarshalCSVish(r))
		buf.WriteByte('\n')
	}
	src := stream.NewCSVishSource(strings.NewReader(buf.String()))

	// Detections stream to a JSON-lines sink, the cmd/tiresias -store
	// file format.
	var saved bytes.Buffer
	sink := tiresias.NewJSONSink(&saved)
	tr, err := tiresias.New(
		tiresias.WithWindowLen(warm),
		tiresias.WithTheta(6),
		tiresias.WithSeasonality(1.0, 96),
		tiresias.WithThresholds(detect.Thresholds{RT: 2.5, DT: 10}),
		tiresias.WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnomalyCount == 0 || sink.Err() != nil {
		t.Fatalf("anomalies = %d, sink error %v", res.AnomalyCount, sink.Err())
	}

	// Load the file into a server's index as history and query it over
	// HTTP.
	history, err := tiresias.ReadAnomalies(&saved)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != res.AnomalyCount {
		t.Fatalf("read back %d anomalies, detected %d", len(history), res.AnomalyCount)
	}
	hs, err := httpserve.New(httpserve.Config{History: history})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	srv := httptest.NewServer(hs.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v2/anomalies?stream=history&under=vho1&limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page api.AnomaliesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	target := hierarchy.KeyOf([]string{"vho1", "io2"})
	found := false
	for _, e := range page.Entries {
		if target.IsAncestorOf(e.Key) && e.Instance >= 9 && e.Instance <= 15 {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected anomaly not retrievable over HTTP; fetched %+v", page.Entries)
	}
}

// TestADATracksSTAOverLongRun is a long-horizon agreement check: over
// 150 instances with churning heavy hitters, ADA's SHHH set matches
// the reference at every instance and the newest-value agreement is
// exact.
func TestADATracksSTAOverLongRun(t *testing.T) {
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{5, 4, 3}, LevelPrefix: []string{"v", "c", "d"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           200,
		Delta:           15 * time.Minute,
		BaseRate:        60,
		DiurnalStrength: 0.6,
		WeeklyStrength:  0.3,
		ZipfS:           1.1,
		Seed:            77,
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := experiments.Collect(stream.NewSliceSource(ds.Records), cfg.Delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ADA's tree grows as categories appear; STA, exact whatever its
	// tree holds, runs on the collected one.
	acfg := algo.Config{Theta: 8, WindowLen: 48, Rule: algo.EWMARule, RefLevels: 1}
	ada, err := algo.NewADA(acfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg.Tree = w.Tree
	sta, err := algo.NewSTA(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.Init(w.Units[:48]); err != nil {
		t.Fatal(err)
	}
	err = experiments.Replay(ada, w.Tree, w.Units, 48, func(stA *algo.StepState) error {
		if stA.Instance == 0 {
			return nil
		}
		i := stA.Instance - 1
		stS, err := sta.StepDense(w.Units[48+i])
		if err != nil {
			return err
		}
		if len(stA.HeavyHitters) != len(stS.HeavyHitters) {
			t.Fatalf("instance %d: |SHHH| %d vs %d", i, len(stA.HeavyHitters), len(stS.HeavyHitters))
		}
		byKey := make(map[hierarchy.Key]float64, len(stS.HeavyHitters))
		for _, s := range stS.HeavyHitters {
			byKey[s.Key] = s.Actual
		}
		for _, a := range stA.HeavyHitters {
			want, ok := byKey[a.Key]
			if !ok {
				t.Fatalf("instance %d: %v in ADA set but not STA set", i, a.Key)
			}
			if math.Abs(a.Actual-want) > 1e-9 {
				t.Fatalf("instance %d: newest value for %v: %v vs %v", i, a.Key, a.Actual, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReferenceMethodBlindSpot verifies the §VII-B story on injected
// truth: a deep incident produces Tiresias "new anomalies" the
// VHO-level chart misses entirely.
func TestReferenceMethodBlindSpot(t *testing.T) {
	const warm = 96
	deep := gen.AnomalySpec{
		Path: []string{"vho0", "io1", "co2"}, StartUnit: warm + 12, EndUnit: warm + 15, ExtraPerUnit: 120,
	}
	cfg := gen.Config{
		Shape:           gen.CCDNetworkShape(0.08),
		Start:           time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC),
		Units:           warm + 32,
		Delta:           15 * time.Minute,
		BaseRate:        500,
		DiurnalStrength: 0.5,
		ZipfS:           0.8,
		Seed:            31,
		Anomalies:       []gen.AnomalySpec{deep},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := experiments.Collect(stream.NewSliceSource(ds.Records), cfg.Delta, cfg.Units)
	if err != nil {
		t.Fatal(err)
	}

	chart, err := refmethod.New(refmethod.Config{K: 3, Window: warm / 2, MinSigma: 2}, w.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var chartHits int
	for i, u := range w.Units {
		for _, al := range chart.Observe(u) {
			if i >= warm+11 && i <= warm+16 && al.Key.IsAncestorOf(deep.Key()) {
				chartHits++
			}
		}
	}

	acfg := algo.Config{
		Theta: 10, WindowLen: warm, Rule: algo.LongTermHistory, RefLevels: 2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 96),
	}
	ada, err := algo.NewADA(acfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := detect.New(detect.Thresholds{RT: 2.5, DT: 15})
	if err != nil {
		t.Fatal(err)
	}
	tiresiasHit := false
	err = experiments.Replay(ada, w.Tree, w.Units, warm, func(st *algo.StepState) error {
		if st.Instance == 0 {
			return nil
		}
		i := st.Instance - 1
		for _, a := range det.Scan(st, time.Time{}) {
			if i >= 11 && i <= 16 && deep.Key().IsAncestorOf(a.Key) {
				tiresiasHit = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chartHits > 0 {
		t.Fatalf("the VHO chart saw the deep incident (%d hits); workload not deep enough", chartHits)
	}
	if !tiresiasHit {
		t.Fatal("Tiresias missed the deep incident")
	}
}

// TestEvalUniverseConsistency cross-checks evalx bookkeeping against a
// real run: TP+FP+TN+FN must cover the screened universe.
func TestEvalUniverseConsistency(t *testing.T) {
	universe := []evalx.Event{
		{Key: hierarchy.KeyOf([]string{"a"}), Instance: 1},
		{Key: hierarchy.KeyOf([]string{"b"}), Instance: 1},
		{Key: hierarchy.KeyOf([]string{"a"}), Instance: 2},
	}
	c := evalx.Compare(universe, universe[:1], universe[1:2])
	if c.TP+c.FP+c.TN+c.FN != len(universe) {
		t.Fatalf("confusion does not cover universe: %+v", c)
	}
}
