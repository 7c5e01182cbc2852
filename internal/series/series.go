// Package series provides the time-series containers Tiresias attaches
// to heavy-hitter nodes: a fixed-capacity ring (the per-node series of
// length ℓ from Definition 3) and the multi-timescale structure of
// §V-B6 / Fig. 10 that supports any time increment ς dividing the
// timeunit size Δ with amortized O(1) updates.
package series

import (
	"errors"
	"fmt"
)

// ErrShape is returned when two series with incompatible shapes are
// combined.
var ErrShape = errors.New("series: incompatible shapes")

// Ring is a fixed-capacity FIFO of float64 samples. Appending beyond
// capacity evicts the oldest sample. Index 0 is the oldest retained
// sample; Last() is the newest. The zero value is unusable; create
// with NewRing.
type Ring struct {
	data []float64
	head int // index of oldest element
	n    int // number of live elements
}

// NewRing returns an empty ring with the given capacity (must be > 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{data: make([]float64, capacity)}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.data) }

// Len returns the number of live samples.
func (r *Ring) Len() int { return r.n }

// Append adds a sample, evicting the oldest if the ring is full.
func (r *Ring) Append(v float64) {
	if r.n < len(r.data) {
		r.data[(r.head+r.n)%len(r.data)] = v
		r.n++
		return
	}
	r.data[r.head] = v
	r.head = (r.head + 1) % len(r.data)
}

// At returns the i-th sample, 0 = oldest. It panics on out-of-range,
// mirroring slice semantics.
func (r *Ring) At(i int) float64 {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("series: index %d out of range [0,%d)", i, r.n))
	}
	return r.data[(r.head+i)%len(r.data)]
}

// Last returns the newest sample and false if the ring is empty.
func (r *Ring) Last() (float64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.At(r.n - 1), true
}

// Values copies the live samples oldest-first into a new slice.
func (r *Ring) Values() []float64 {
	return r.ValuesInto(nil)
}

// ValuesInto copies the live samples oldest-first into dst, reusing
// its backing array when it is large enough, and returns the filled
// slice of length Len(). Passing the previous return value makes
// repeated extraction allocation-free.
func (r *Ring) ValuesInto(dst []float64) []float64 {
	if cap(dst) < r.n {
		dst = make([]float64, r.n)
	} else {
		dst = dst[:r.n]
	}
	first := len(r.data) - r.head
	if first > r.n {
		first = r.n
	}
	copy(dst, r.data[r.head:r.head+first])
	copy(dst[first:], r.data[:r.n-first])
	return dst
}

// Scale multiplies every sample by f in place. Used by ADA's SPLIT,
// which hands each child the parent's series scaled by the split
// ratio.
func (r *Ring) Scale(f float64) {
	for i := range r.data {
		r.data[i] *= f
	}
}

// AddRing adds other's samples elementwise, aligning newest-to-newest.
// Both rings must have the same capacity; the receiver's length
// becomes the max of the two. Used by ADA's MERGE.
func (r *Ring) AddRing(other *Ring) error {
	return r.addScaled(other, 1)
}

// SubRing subtracts other's samples elementwise, aligning
// newest-to-newest, under the same shape rules as AddRing. Used by
// ADA's reference-series repair (§V-B5) in place of clone-negate-add.
func (r *Ring) SubRing(other *Ring) error {
	return r.addScaled(other, -1)
}

// addScaled adds f·other into r with newest-to-newest alignment. The
// index arithmetic wraps incrementally instead of taking a modulus per
// sample — this loop runs once per retained sample on every MERGE, so
// it is one of the hottest in the engine.
func (r *Ring) addScaled(other *Ring, f float64) error {
	if other == nil {
		return nil
	}
	if len(r.data) != len(other.data) {
		return fmt.Errorf("%w: cap %d vs %d", ErrShape, len(r.data), len(other.data))
	}
	size := len(r.data)
	if other.n > r.n {
		// Grow the receiver with leading zeros so alignment by
		// newest sample is preserved.
		grow := other.n - r.n
		r.head = (r.head - grow + size*2) % size
		idx := r.head
		for i := 0; i < grow; i++ {
			r.data[idx] = 0
			idx++
			if idx == size {
				idx = 0
			}
		}
		r.n = other.n
	}
	// Align other's oldest sample with the matching slot of r.
	ri := r.head + r.n - other.n
	if ri >= size {
		ri -= size
	}
	oi := other.head
	for i := 0; i < other.n; i++ {
		r.data[ri] += f * other.data[oi]
		ri++
		if ri == size {
			ri = 0
		}
		oi++
		if oi == size {
			oi = 0
		}
	}
	return nil
}

// Reset empties the ring in place, keeping its capacity. Used when a
// pooled ring is reused.
func (r *Ring) Reset() {
	r.head, r.n = 0, 0
}

// CopyFrom overwrites the receiver with other's contents. Both rings
// must have the same capacity. Together with a free list it replaces
// Clone on the split hot path.
func (r *Ring) CopyFrom(other *Ring) error {
	if len(r.data) != len(other.data) {
		return fmt.Errorf("%w: cap %d vs %d", ErrShape, len(r.data), len(other.data))
	}
	copy(r.data, other.data)
	r.head, r.n = other.head, other.n
	return nil
}

// SetValues replaces the ring contents with vs (oldest-first). If vs
// is longer than capacity only the newest Cap() samples are kept.
func (r *Ring) SetValues(vs []float64) {
	r.head, r.n = 0, 0
	start := 0
	if len(vs) > len(r.data) {
		start = len(vs) - len(r.data)
	}
	for _, v := range vs[start:] {
		r.Append(v)
	}
}

// MultiScale maintains the same signal at η geometrically spaced
// timescales: scale i has resolution λ^i timeunits (Fig. 10). Each
// scale keeps at most ell samples (plus up to λ staged samples at
// finer scales, exactly as the paper's pop_head-λ-times rule). Updates
// are amortized O(1) per timeunit.
type MultiScale struct {
	lambda int
	ell    int
	scales [][]float64
	// fills counts samples appended at each scale since the last
	// cascade, so scale i+1 aggregates exactly lambda buckets of
	// scale i.
	fills []int
}

// NewMultiScale returns a MultiScale with eta scales, base-λ spacing,
// and per-scale window length ell. lambda must be >= 2 and eta >= 1.
func NewMultiScale(lambda, eta, ell int) (*MultiScale, error) {
	if lambda < 2 {
		return nil, fmt.Errorf("series: lambda must be >= 2, got %d", lambda)
	}
	if eta < 1 {
		return nil, fmt.Errorf("series: eta must be >= 1, got %d", eta)
	}
	if ell < 1 {
		return nil, fmt.Errorf("series: ell must be >= 1, got %d", ell)
	}
	return &MultiScale{
		lambda: lambda,
		ell:    ell,
		scales: make([][]float64, eta),
		fills:  make([]int, eta),
	}, nil
}

// Update appends the newest timeunit weight w at the finest scale and
// cascades aggregated sums to coarser scales (UPDATE_TS in Fig. 10).
func (m *MultiScale) Update(w float64) {
	m.update(w, 0)
}

func (m *MultiScale) update(w float64, i int) {
	m.scales[i] = append(m.scales[i], w)
	m.fills[i]++
	if i+1 < len(m.scales) && m.fills[i]%m.lambda == 0 {
		s := m.scales[i]
		var agg float64
		for j := len(s) - m.lambda; j < len(s); j++ {
			agg += s[j]
		}
		m.update(agg, i+1)
	}
	// Trim: the paper pops λ head elements once size reaches ℓ+λ.
	if len(m.scales[i]) >= m.ell+m.lambda {
		m.scales[i] = append(m.scales[i][:0], m.scales[i][m.lambda:]...)
	}
}

// Series returns the samples retained at scale i, oldest first. The
// returned slice is shared; callers must not mutate it.
func (m *MultiScale) Series(i int) []float64 {
	if i < 0 || i >= len(m.scales) {
		return nil
	}
	return m.scales[i]
}

// Total returns the total number of float64 slots currently held, for
// the memory accounting of Table IV.
func (m *MultiScale) Total() int {
	n := 0
	for _, s := range m.scales {
		n += len(s)
	}
	return n
}

// Scale multiplies every retained sample at every timescale by f.
// Used when ADA splits a multi-scale series to a child.
func (m *MultiScale) Scale(f float64) {
	for _, s := range m.scales {
		for i := range s {
			s[i] *= f
		}
	}
}

// Add folds other's samples into the receiver, scale by scale,
// aligning newest-to-newest. Shapes (λ, η) must match.
func (m *MultiScale) Add(other *MultiScale) error {
	if other == nil {
		return nil
	}
	if m.lambda != other.lambda || len(m.scales) != len(other.scales) {
		return fmt.Errorf("%w: multiscale (λ=%d,η=%d) vs (λ=%d,η=%d)",
			ErrShape, m.lambda, len(m.scales), other.lambda, len(other.scales))
	}
	for i := range m.scales {
		a, b := m.scales[i], other.scales[i]
		if n := len(a); len(b) > n {
			// Grow with leading zeros, within capacity when it allows.
			if cap(a) < len(b) {
				a = make([]float64, len(b))
			} else {
				a = a[:len(b)]
			}
			copy(a[len(b)-n:], m.scales[i])
			clear(a[:len(b)-n])
			m.scales[i] = a
		}
		for j := 0; j < len(b); j++ {
			a[len(a)-1-j] += b[len(b)-1-j]
		}
	}
	return nil
}

// CopyFrom overwrites the receiver with other's samples and cascade
// counters, reusing the receiver's memory. It returns ErrShape and
// leaves the receiver unchanged unless the shapes (λ, η, ℓ) match.
//
//tiresias:hotpath
func (m *MultiScale) CopyFrom(other *MultiScale) error {
	if m.lambda != other.lambda || m.ell != other.ell || len(m.scales) != len(other.scales) {
		return ErrShape
	}
	copy(m.fills, other.fills)
	for i, s := range other.scales {
		m.scales[i] = append(m.scales[i][:0], s...)
	}
	return nil
}

// Reset empties every scale in place, keeping the shape and capacity:
// the receiver becomes what NewMultiScale returns for its shape.
//
//tiresias:hotpath
func (m *MultiScale) Reset() {
	for i := range m.scales {
		m.scales[i] = m.scales[i][:0]
		m.fills[i] = 0
	}
}
