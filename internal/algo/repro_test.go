package algo

import (
	"math/rand"
	"testing"

	"tiresias/internal/hierarchy"
)

// TestLemma1Seeds replays specific seeds that have historically
// produced counterexamples, with verbose diagnostics.
func TestLemma1Seeds(t *testing.T) {
	seeds := []int64{-5972774598385677080}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		units := randomStream(rng, 24)
		cfg := Config{Theta: float64(rng.Intn(8) + 3), WindowLen: 8, Rule: SplitRule(rng.Intn(4) + 1)}
		ada, err := NewADA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := initUnits(ada, units[:8]); err != nil {
			t.Fatal(err)
		}
		for step, u := range units[8:] {
			st, err := stepUnit(ada, u)
			if err != nil {
				t.Fatal(err)
			}
			ref := refSHHH(ada.Tree(), u, cfg.Theta)
			got := make(map[hierarchy.Key]bool)
			for _, hh := range st.HeavyHitters {
				got[hh.Key] = true
			}
			want := make(map[hierarchy.Key]bool)
			for _, n := range ref.Set {
				want[ada.Tree().Key(int(n))] = true
			}
			for k := range want {
				if !got[k] {
					t.Errorf("seed %d step %d: missing member %v (W=%v)", seed, step, k, ref.W[ada.Tree().Lookup(k)])
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("seed %d step %d: spurious member %v", seed, step, k)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}
