package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// ScorecardVersion is bumped when the scorecard schema or the scoring
// semantics change, so a compare across incompatible scorecards fails
// loudly instead of gating on apples-to-oranges numbers.
const ScorecardVersion = 1

// Score is one scenario's detection-quality outcome.
type Score struct {
	// Scenario and Driver identify what ran where.
	Scenario string `json:"scenario"`
	Driver   string `json:"driver"`
	// Streams and Records describe the workload size.
	Streams int `json:"streams"`
	Records int `json:"records"`
	// Truth and Detected count ground-truth events and distinct
	// detected events.
	Truth    int `json:"truth"`
	Detected int `json:"detected"`
	// TP/FP/FN are the event-level confusion counts (see
	// Scenario.Score for the matching semantics).
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`
	// Precision, Recall, and F1 summarize the confusion; F1 is what
	// the accuracy gate compares.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Scorecard is the machine-readable accuracy record a run emits and
// the gate compares — the detection-quality sibling of the perf
// gate's `go run ./bench` report.
type Scorecard struct {
	// Version is the scorecard schema version.
	Version int `json:"version"`
	// Seed reproduces the run: same seed, byte-identical scorecard.
	Seed int64 `json:"seed"`
	// Scores holds one entry per scenario, in suite order.
	Scores []Score `json:"scores"`
}

// round4 trims scoring ratios to a stable printable precision; the
// underlying integer counts stay exact in the scorecard.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// RunSuite runs the named scenarios (all of them when names is empty)
// at the given seed and returns the scorecard. Every scenario runs
// end to end through its configured driver.
func RunSuite(seed int64, names []string) (*Scorecard, error) {
	var scs []*Scenario
	if len(names) == 0 {
		scs = All(seed)
	} else {
		for _, n := range names {
			sc, err := ByName(n, seed)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
	}
	card := &Scorecard{Version: ScorecardVersion, Seed: seed}
	for _, sc := range scs {
		events, err := sc.Detect()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		records := 0
		for _, st := range sc.Streams {
			recs, err := st.Records()
			if err != nil {
				return nil, err
			}
			records += len(recs)
		}
		c := sc.Score(events)
		card.Scores = append(card.Scores, Score{
			Scenario:  sc.Name,
			Driver:    string(sc.Driver),
			Streams:   len(sc.Streams),
			Records:   records,
			Truth:     c.TP + c.FN,
			Detected:  len(events),
			TP:        c.TP,
			FP:        c.FP,
			FN:        c.FN,
			Precision: round4(c.Precision()),
			Recall:    round4(c.Recall()),
			F1:        round4(c.F1()),
		})
	}
	return card, nil
}

// JSON renders the scorecard in its canonical byte-stable form.
func (c *Scorecard) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Markdown renders the scorecard as the table published in README and
// the CI step summary.
func (c *Scorecard) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| scenario | driver | records | truth | TP | FP | FN | precision | recall | F1 |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range c.Scores {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %d | %.4f | %.4f | %.4f |\n",
			s.Scenario, s.Driver, s.Records, s.Truth, s.TP, s.FP, s.FN,
			s.Precision, s.Recall, s.F1)
	}
	return b.String()
}

// Load reads a scorecard file written by JSON.
func Load(path string) (*Scorecard, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Scorecard
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	return &c, nil
}

// Compare gates a new scorecard against an old one: a scenario
// regresses when its F1 drops by more than tolerance (absolute F1
// points). Scenarios present on only one side are reported but never
// gate — mirroring the perf gate, renaming or adding a scenario must
// not fail unrelated PRs. Returns the per-scenario report lines and
// whether the gate passes.
func Compare(oldCard, newCard *Scorecard, tolerance float64) ([]string, bool) {
	var lines []string
	ok := true
	if oldCard.Version != newCard.Version {
		return []string{fmt.Sprintf("FAIL: scorecard versions differ (old v%d, new v%d); re-baseline instead of comparing",
			oldCard.Version, newCard.Version)}, false
	}
	oldBy := make(map[string]Score, len(oldCard.Scores))
	for _, s := range oldCard.Scores {
		oldBy[s.Scenario] = s
	}
	seen := make(map[string]bool, len(newCard.Scores))
	for _, n := range newCard.Scores {
		seen[n.Scenario] = true
		o, matched := oldBy[n.Scenario]
		if !matched {
			lines = append(lines, fmt.Sprintf("new scenario %-18s F1 %.4f (no old side, not gated)", n.Scenario, n.F1))
			continue
		}
		delta := n.F1 - o.F1
		verdict := "ok"
		if delta < -tolerance {
			verdict = "REGRESSION"
			ok = false
		} else if delta > tolerance {
			verdict = "improved"
		}
		lines = append(lines, fmt.Sprintf("%-18s F1 %.4f -> %.4f (%+.4f)  %s", n.Scenario, o.F1, n.F1, delta, verdict))
	}
	for _, o := range oldCard.Scores {
		if !seen[o.Scenario] {
			lines = append(lines, fmt.Sprintf("old scenario %-18s gone (not gated)", o.Scenario))
		}
	}
	return lines, ok
}
