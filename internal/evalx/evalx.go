// Package evalx implements the evaluation machinery of §VII: the
// confusion metrics that score ADA against STA's exact output
// (Table V), the reference-method comparison with ancestor matching
// and its Type 1/2/3 metrics (Table VI), and the per-level CCDF
// characterization of Fig. 1.
package evalx

import (
	"sort"

	"tiresias/internal/hierarchy"
)

// Event identifies an anomaly occurrence as a (location, timeunit)
// pair, the unit of comparison throughout §VII.
type Event struct {
	Key      hierarchy.Key
	Instance int
}

// Confusion aggregates a binary classification outcome.
type Confusion struct {
	TP, FP, TN, FN int
}

// Accuracy returns (TP+TN)/total, 0 when empty.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, 0 when either
// is undefined — the single-number summary the accuracy gate ranks
// scenarios by.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Compare scores predicted events against ground truth over a given
// candidate universe (every (heavy hitter, instance) pair that was
// screened). Events outside the universe are ignored.
func Compare(universe, truth, predicted []Event) Confusion {
	inTruth := toSet(truth)
	inPred := toSet(predicted)
	var c Confusion
	for _, e := range universe {
		t := inTruth[e]
		p := inPred[e]
		switch {
		case t && p:
			c.TP++
		case !t && p:
			c.FP++
		case t && !p:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

func toSet(events []Event) map[Event]bool {
	m := make(map[Event]bool, len(events))
	for _, e := range events {
		m[e] = true
	}
	return m
}

// RefComparison is the outcome of the §VII-B methodology, which cannot
// use plain TP/FP because the reference set only covers the first
// network level. Matching uses the ⊒ relation: a reference anomaly is
// covered when Tiresias reports the same timeunit at the same node or
// any descendant.
type RefComparison struct {
	// TrueAlarms counts reference anomalies matched by Tiresias (TA).
	TrueAlarms int
	// MissedAnomalies counts reference anomalies with no match (MA).
	MissedAnomalies int
	// NewAnomalies counts Tiresias anomalies unrelated to any
	// reference anomaly (NA).
	NewAnomalies int
	// TrueNegatives counts screened heavy hitters that neither side
	// flagged (TN).
	TrueNegatives int
	// NewByDepth histograms the NA cases by hierarchy depth after
	// ancestor deduplication (the paper's VHO/IO/CO/DSLAM split).
	NewByDepth map[int]int
}

// Type1 is the paper's accuracy metric: (TA+TN)/cases, where cases =
// TA+MA+NA+TN.
func (r RefComparison) Type1() float64 {
	total := r.TrueAlarms + r.MissedAnomalies + r.NewAnomalies + r.TrueNegatives
	if total == 0 {
		return 0
	}
	return float64(r.TrueAlarms+r.TrueNegatives) / float64(total)
}

// Type2 is TA/(TA+MA): coverage of the reference set.
func (r RefComparison) Type2() float64 {
	if r.TrueAlarms+r.MissedAnomalies == 0 {
		return 0
	}
	return float64(r.TrueAlarms) / float64(r.TrueAlarms+r.MissedAnomalies)
}

// Type3 is TN/(TN+NA): agreement on quiet periods.
func (r RefComparison) Type3() float64 {
	if r.TrueNegatives+r.NewAnomalies == 0 {
		return 0
	}
	return float64(r.TrueNegatives) / float64(r.TrueNegatives+r.NewAnomalies)
}

// CompareWithReference implements §VII-B. reference holds the alarms
// of the first-level method; tiresias the events Tiresias reported;
// screened the (heavy hitter, instance) pairs Tiresias examined
// without flagging (candidates for true negatives).
func CompareWithReference(reference, tiresias, screened []Event) RefComparison {
	r := RefComparison{NewByDepth: make(map[int]int)}
	matched := func(ref Event, events []Event) bool {
		for _, e := range events {
			if e.Instance == ref.Instance && ref.Key.IsAncestorOf(e.Key) {
				return true
			}
		}
		return false
	}
	for _, ref := range reference {
		if matched(ref, tiresias) {
			r.TrueAlarms++
		} else {
			r.MissedAnomalies++
		}
	}
	related := func(e Event) bool {
		for _, ref := range reference {
			if ref.Instance == e.Instance && ref.Key.IsAncestorOf(e.Key) {
				return true
			}
		}
		return false
	}
	var newEvents []Event
	for _, e := range tiresias {
		if !related(e) {
			r.NewAnomalies++
			newEvents = append(newEvents, e)
		}
	}
	for _, e := range screened {
		if !related(e) && !inEvents(e, tiresias) {
			r.TrueNegatives++
		}
	}
	for _, e := range dedupeAncestors(newEvents) {
		r.NewByDepth[e.Key.Depth()]++
	}
	return r
}

func inEvents(e Event, events []Event) bool {
	for _, x := range events {
		if x == e {
			return true
		}
	}
	return false
}

// dedupeAncestors removes events that are ancestors of another event
// at the same instance (the paper's aggregation of NA cases).
func dedupeAncestors(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for i, a := range events {
		shadowed := false
		for j, b := range events {
			if i == j || a.Instance != b.Instance {
				continue
			}
			if a.Key != b.Key && a.Key.IsAncestorOf(b.Key) {
				shadowed = true
				break
			}
		}
		if !shadowed {
			out = append(out, a)
		}
	}
	return out
}

// CCDFPoint is one point of a complementary CDF.
type CCDFPoint struct {
	// X is the normalized count of appearances.
	X float64
	// P is P(value >= X) over nodes and timeunits.
	P float64
}

// CCDF computes the complementary cumulative distribution of the
// values, normalized by their maximum (the Fig. 1 axes). Zeros are
// included in the population (they are what make the distribution
// sparse) but produce no distinct plot point below the smallest
// positive value.
func CCDF(values []float64) []CCDFPoint {
	if len(values) == 0 {
		return nil
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return []CCDFPoint{{X: 0, P: 1}}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []CCDFPoint
	for i := 0; i < len(sorted); {
		v := sorted[i]
		j := i
		for j < len(sorted) && sorted[j] == v {
			j++
		}
		if v > 0 {
			// P(X >= v) = fraction at index >= i.
			out = append(out, CCDFPoint{X: v / maxV, P: (n - float64(i)) / n})
		}
		i = j
	}
	return out
}
