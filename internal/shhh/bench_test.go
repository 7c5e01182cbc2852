package shhh

import (
	"math/rand"
	"strconv"
	"testing"

	"tiresias/internal/hierarchy"
)

// benchSetup builds a regular tree of the given shape with random leaf
// counts.
func benchSetup(degrees []int, fill float64) (*hierarchy.Tree, Counts) {
	rng := rand.New(rand.NewSource(1))
	t := hierarchy.New()
	counts := Counts{}
	var walk func(prefix []string, depth int)
	walk = func(prefix []string, depth int) {
		if depth == len(degrees) {
			t.Intern(prefix)
			if rng.Float64() < fill {
				counts[hierarchy.KeyOf(prefix)] = float64(rng.Intn(20))
			}
			return
		}
		for i := 0; i < degrees[depth]; i++ {
			walk(append(prefix, "n"+strconv.Itoa(i)), depth+1)
		}
	}
	walk(nil, 0)
	return t, counts
}

// BenchmarkComputeCCDShape measures one SHHH pass over the CCD trouble
// hierarchy shape (9x6x3x5 = 810 leaves).
func BenchmarkComputeCCDShape(b *testing.B) {
	t, counts := benchSetup([]int{9, 6, 3, 5}, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(t, counts, 10)
	}
}

// BenchmarkComputeWideShape measures SHHH over a wide SCD-like shape.
func BenchmarkComputeWideShape(b *testing.B) {
	t, counts := benchSetup([]int{200, 30}, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(t, counts, 10)
	}
}

// BenchmarkFrozenWeights measures the per-timeunit reconstruction STA
// performs ℓ times per instance.
func BenchmarkFrozenWeights(b *testing.B) {
	t, counts := benchSetup([]int{9, 6, 3, 5}, 0.3)
	r := Compute(t, counts, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FrozenWeights(t, counts, r.InSet)
	}
}

// BenchmarkAggregate measures the raw-weight pass used by reference
// series and split-rule statistics.
func BenchmarkAggregate(b *testing.B) {
	t, counts := benchSetup([]int{9, 6, 3, 5}, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Aggregate(t, counts)
	}
}
