package tiresias_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/experiments"
	"tiresias/internal/hierarchy"
)

// TestSoakSpeedupGrowsWithWindow verifies the central scaling claim of
// Table III: STA's cost is Θ(ℓ·|tree|) per instance while ADA's does
// not depend on ℓ, so the ADA/STA speedup must grow roughly linearly
// with the window length ℓ. The paper's ℓ=8064 yields 14.2×; at our test
// sizes the ratio is smaller but must increase monotonically in ℓ.
//
// The test runs ~20 s and is gated behind TIRESIAS_SOAK=1.
func TestSoakSpeedupGrowsWithWindow(t *testing.T) {
	if os.Getenv("TIRESIAS_SOAK") == "" {
		t.Skip("set TIRESIAS_SOAK=1 to run the scaling soak")
	}
	p := experiments.Quick()
	p.RunUnits = 24
	p.BaseRate = 150

	measure := func(warm int) float64 {
		prof := p
		prof.WindowLen = warm
		w, err := experiments.CCDNetWorkload(prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		cost := func(name string) time.Duration {
			cfg := algo.Config{Theta: prof.Theta, WindowLen: warm}
			var e algo.Engine
			if name == "STA" {
				e, err = algo.NewSTA(cfg)
			} else {
				e, err = algo.NewADA(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			var total time.Duration
			err := experiments.Replay(e, w.Tree, w.Units, warm, func(st *algo.StepState) error {
				if st.Instance > 0 {
					total += st.Timings.Total()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return total
		}
		sta := cost("STA")
		ada := cost("ADA")
		if ada == 0 {
			return 0
		}
		return float64(sta) / float64(ada)
	}

	s96 := measure(96)
	s384 := measure(384)
	s1536 := measure(1536)
	t.Logf("speedup: ℓ=96 → %.1fx, ℓ=384 → %.1fx, ℓ=1536 → %.1fx", s96, s384, s1536)
	if !(s1536 > s384 && s384 > s96) {
		t.Fatalf("speedup must grow with ℓ: %.1f, %.1f, %.1f", s96, s384, s1536)
	}
	if s1536 < 8 {
		t.Fatalf("at ℓ=1536 the speedup should be large (paper: 14.2x at ℓ=8064), got %.1fx", s1536)
	}
}

// TestSoakStepCostFlatOnQuietWideTree verifies that the ADA step's
// cost does not drift on a long-lived, mostly quiet hierarchy: every
// leaf of a 12k-leaf tree carries traffic once, then each unit touches
// 8 of the same 512, and the mean step time over units 2ℓ…3ℓ must stay
// within 1.5× of units 0…ℓ. It guards both halves of the sparse step: a
// full-tree sweep would make the step cost O(|tree|) throughout, and
// smoothed state left to decay into the subnormal range made it ~8×
// dearer from about 2ℓ on (ℓ = 672, α = 0.4).
//
// Gated behind TIRESIAS_SOAK=1 with the other soak.
func TestSoakStepCostFlatOnQuietWideTree(t *testing.T) {
	if os.Getenv("TIRESIAS_SOAK") == "" {
		t.Skip("set TIRESIAS_SOAK=1 to run the quiet-tree soak")
	}
	const window = 672
	tree := hierarchy.New()
	var leaves []int
	for a := 0; a < 6; a++ {
		for b := 0; b < 20; b++ {
			for c := 0; c < 100; c++ {
				leaves = append(leaves, tree.Intern([]string{"t" + strconv.Itoa(a), "m" + strconv.Itoa(b), "l" + strconv.Itoa(c)}))
			}
		}
	}
	e, err := algo.NewADA(algo.Config{
		Theta:         10,
		WindowLen:     window,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 96),
		Tree:          tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	var du algo.DenseUnit
	sparse := func(i int) { // 64 unit patterns over 512 leaves; the rest stay quiet
		du.Reset()
		for k := 0; k < 8; k++ {
			du.Add(leaves[(i%64*8+k)*977%len(leaves)], float64(1+k%3))
		}
	}
	warm := make([]*algo.DenseUnit, window)
	for i := range warm {
		sparse(i)
		if i >= window-2 { // the census: every leaf, in the newest units
			for _, id := range leaves {
				du.Add(id, 1)
			}
		}
		warm[i] = du.Pairs()
	}
	if _, err := e.Init(warm); err != nil {
		t.Fatal(err)
	}
	var first, last time.Duration
	for i := 0; i < 3*window; i++ {
		sparse(i)
		st, err := e.StepDense(&du)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < window:
			first += st.Timings.Total()
		case i >= 2*window:
			last += st.Timings.Total()
		}
	}
	ratio := float64(last) / float64(first)
	t.Logf("mean step: units 0…ℓ %v, units 2ℓ…3ℓ %v (%.2fx)", first/window, last/window, ratio)
	if ratio > 1.5 {
		t.Fatalf("step cost grew %.2fx between the first and third window of a quiet wide tree, want <= 1.5x", ratio)
	}
}
