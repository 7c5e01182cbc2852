package shhh

import (
	"math/rand"
	"strconv"
	"testing"

	"tiresias/internal/hierarchy"
)

// benchSetup builds a regular tree of the given shape with random leaf
// counts in ID form.
func benchSetup(degrees []int, fill float64) (t *hierarchy.Tree, ids []int32, vals []float64) {
	rng := rand.New(rand.NewSource(1))
	t = hierarchy.New()
	var walk func(prefix []string, depth int)
	walk = func(prefix []string, depth int) {
		if depth == len(degrees) {
			id := t.Intern(prefix)
			if rng.Float64() < fill {
				ids = append(ids, int32(id))
				vals = append(vals, float64(rng.Intn(20)))
			}
			return
		}
		for i := 0; i < degrees[depth]; i++ {
			walk(append(prefix, "n"+strconv.Itoa(i)), depth+1)
		}
	}
	walk(nil, 0)
	return t, ids, vals
}

// BenchmarkComputeCCDShape measures one SHHH pass over the CCD trouble
// hierarchy shape (9x6x3x5 = 810 leaves).
func BenchmarkComputeCCDShape(b *testing.B) {
	t, ids, vals := benchSetup([]int{9, 6, 3, 5}, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeInto(t, ids, vals, 10, nil)
	}
}

// BenchmarkComputeWideShape measures SHHH over a wide SCD-like shape.
func BenchmarkComputeWideShape(b *testing.B) {
	t, ids, vals := benchSetup([]int{200, 30}, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeInto(t, ids, vals, 10, nil)
	}
}

// BenchmarkFrozenWeights measures the per-timeunit reconstruction STA
// performs ℓ times per instance.
func BenchmarkFrozenWeights(b *testing.B) {
	t, ids, vals := benchSetup([]int{9, 6, 3, 5}, 0.3)
	r := ComputeInto(t, ids, vals, 10, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FrozenWeightsInto(t, ids, vals, r.InSet, nil)
	}
}

// BenchmarkAggregate measures the raw-weight pass used by reference
// series and split-rule statistics.
func BenchmarkAggregate(b *testing.B) {
	t, ids, vals := benchSetup([]int{9, 6, 3, 5}, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateInto(t, ids, vals, nil)
	}
}
