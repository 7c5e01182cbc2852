package series

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRingAppendEvicts(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Append(float64(i))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	want := []float64{3, 4, 5}
	got := r.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
	last, ok := r.Last()
	if !ok || last != 5 {
		t.Fatalf("Last() = %v,%v, want 5,true", last, ok)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(2)
	if _, ok := r.Last(); ok {
		t.Fatal("Last() on empty ring must report false")
	}
	if r.Len() != 0 || r.Cap() != 2 {
		t.Fatalf("Len/Cap = %d/%d", r.Len(), r.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At() out of range must panic")
		}
	}()
	r.At(0)
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := NewRing(0)
	r.Append(7)
	if v, _ := r.Last(); v != 7 {
		t.Fatalf("Last = %v, want 7", v)
	}
}

func TestRingScale(t *testing.T) {
	r := NewRing(4)
	for _, v := range []float64{1, 2, 3} {
		r.Append(v)
	}
	r.Scale(0.5)
	want := []float64{0.5, 1, 1.5}
	for i, w := range want {
		if r.At(i) != w {
			t.Fatalf("At(%d) = %v, want %v", i, r.At(i), w)
		}
	}
}

func TestRingAddRingAlignsNewest(t *testing.T) {
	a := NewRing(4)
	b := NewRing(4)
	for _, v := range []float64{1, 2, 3, 4} {
		a.Append(v)
	}
	for _, v := range []float64{10, 20} {
		b.Append(v)
	}
	if err := a.AddRing(b); err != nil {
		t.Fatal(err)
	}
	// b's newest (20) aligns with a's newest (4).
	want := []float64{1, 2, 13, 24}
	got := a.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

func TestRingAddRingGrowsReceiver(t *testing.T) {
	a := NewRing(4)
	b := NewRing(4)
	a.Append(5)
	for _, v := range []float64{1, 2, 3} {
		b.Append(v)
	}
	if err := a.AddRing(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 8}
	got := a.Values()
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

func TestRingAddRingShapeMismatch(t *testing.T) {
	a := NewRing(4)
	b := NewRing(5)
	if err := a.AddRing(b); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if err := a.AddRing(nil); err != nil {
		t.Fatalf("AddRing(nil) = %v, want nil", err)
	}
}

func TestRingSetValuesTruncates(t *testing.T) {
	r := NewRing(3)
	r.SetValues([]float64{1, 2, 3, 4, 5})
	want := []float64{3, 4, 5}
	got := r.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

// Property: a Ring behaves exactly like keeping the last Cap() values
// of an append-only slice.
func TestRingMatchesSliceModel(t *testing.T) {
	f := func(seed int64, capRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%16) + 1
		n := int(nRaw % 200)
		r := NewRing(capacity)
		var model []float64
		for i := 0; i < n; i++ {
			v := rng.Float64()
			r.Append(v)
			model = append(model, v)
		}
		if len(model) > capacity {
			model = model[len(model)-capacity:]
		}
		if r.Len() != len(model) {
			return false
		}
		for i := range model {
			if r.At(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiScaleValidation(t *testing.T) {
	if _, err := NewMultiScale(1, 2, 10); err == nil {
		t.Fatal("lambda=1 must be rejected")
	}
	if _, err := NewMultiScale(2, 0, 10); err == nil {
		t.Fatal("eta=0 must be rejected")
	}
	if _, err := NewMultiScale(2, 1, 0); err == nil {
		t.Fatal("ell=0 must be rejected")
	}
}

func TestMultiScaleCascade(t *testing.T) {
	m, err := NewMultiScale(2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		m.Update(1)
	}
	// Scale 0: eight 1s. Scale 1: four 2s. Scale 2: two 4s.
	if got := len(m.Series(0)); got != 8 {
		t.Fatalf("scale0 len = %d, want 8", got)
	}
	s1 := m.Series(1)
	if len(s1) != 4 {
		t.Fatalf("scale1 len = %d, want 4", len(s1))
	}
	for _, v := range s1 {
		if v != 2 {
			t.Fatalf("scale1 = %v, want all 2", s1)
		}
	}
	s2 := m.Series(2)
	if len(s2) != 2 {
		t.Fatalf("scale2 len = %d, want 2", len(s2))
	}
	for _, v := range s2 {
		if v != 4 {
			t.Fatalf("scale2 = %v, want all 4", s2)
		}
	}
	if len(m.scales) != 3 || m.lambda != 2 {
		t.Fatal("accessors wrong")
	}
}

// Property: coarse scales aggregate exactly λ consecutive fine
// buckets, so totals across aligned windows agree.
func TestMultiScaleConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := (int(nRaw%50) + 2) * 4 // multiple of λ²=4 so scales align
		m, err := NewMultiScale(2, 2, 1024)
		if err != nil {
			return false
		}
		var total float64
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(10))
			m.Update(v)
			total += v
		}
		var fine, coarse float64
		for _, v := range m.Series(0) {
			fine += v
		}
		for _, v := range m.Series(1) {
			coarse += v
		}
		return math.Abs(fine-total) < 1e-9 && math.Abs(coarse-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiScaleTrimsToWindow(t *testing.T) {
	ell := 10
	m, err := NewMultiScale(2, 2, ell)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m.Update(1)
	}
	if got := len(m.Series(0)); got >= ell+2 {
		t.Fatalf("scale0 len = %d, must stay < ell+lambda = %d", got, ell+2)
	}
	if got := len(m.Series(1)); got >= ell+2 {
		t.Fatalf("scale1 len = %d, must stay < ell+lambda = %d", got, ell+2)
	}
	if m.Total() <= 0 {
		t.Fatal("Total must be positive")
	}
}

func TestMultiScaleSeriesOutOfRange(t *testing.T) {
	m, err := NewMultiScale(2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Series(-1) != nil || m.Series(1) != nil {
		t.Fatal("out-of-range Series must return nil")
	}
}

// TestMultiScaleInPlace pins the in-place operations an engine recycles
// multi-scale series with: CopyFrom leaves the source's state in the
// receiver's memory and refuses another shape, Reset leaves what
// NewMultiScale builds, and Add into a reset series grows within the
// capacity it kept, allocating nothing.
func TestMultiScaleInPlace(t *testing.T) {
	filled := func(lambda, eta, ell, n int) *MultiScale {
		m, err := NewMultiScale(lambda, eta, ell)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			m.Update(float64(i%7) + 0.5)
		}
		return m
	}
	src, dst := filled(2, 3, 8, 37), filled(2, 3, 8, 11)
	want := src.State()
	if err := dst.CopyFrom(src); err != nil || !reflect.DeepEqual(dst.State(), want) {
		t.Fatalf("CopyFrom = %v, state %v, want %v", err, dst.State(), want)
	}
	dst.Update(100)
	dst.Scale(2)
	if !reflect.DeepEqual(src.State(), want) {
		t.Fatal("CopyFrom shares memory with its source")
	}
	for _, other := range []*MultiScale{filled(3, 3, 8, 5), filled(2, 2, 8, 5), filled(2, 3, 9, 5)} {
		before := dst.State()
		if err := dst.CopyFrom(other); !errors.Is(err, ErrShape) || !reflect.DeepEqual(dst.State(), before) {
			t.Fatalf("CopyFrom across shapes = %v, state changed %v", err, !reflect.DeepEqual(dst.State(), before))
		}
	}

	fresh := filled(2, 3, 8, 0)
	dst.Reset()
	if !reflect.DeepEqual(dst.State(), fresh.State()) {
		t.Fatalf("Reset state %v, NewMultiScale %v", dst.State(), fresh.State())
	}
	if err := fresh.Add(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst.Reset()
		if err := dst.Add(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !reflect.DeepEqual(dst.State(), fresh.State()) {
		t.Fatalf("Add into a reset series: %.0f allocs, state %v, want %v", allocs, dst.State(), fresh.State())
	}
}
