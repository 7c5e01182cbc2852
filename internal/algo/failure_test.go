package algo

import (
	"math"
	"testing"

	"tiresias/internal/shhh"
)

// Failure-injection tests: regimes that stress the adaptation logic —
// total silence, single massive bursts, and a universe that keeps
// growing mid-stream.

func TestADASurvivesTotalSilence(t *testing.T) {
	ada, err := NewADA(Config{Theta: 5, WindowLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 8)
	for i := range warm {
		warm[i] = Timeunit{key("a", "x"): 7, key("b", "y"): 6}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	// The stream goes completely dark. All heavy hitters must decay
	// away (merge to the root) without error, and the SHHH set must
	// end empty.
	var last *StepState
	for i := 0; i < 12; i++ {
		last, err = StepTimeunit(ada, Timeunit{})
		if err != nil {
			t.Fatalf("silent step %d: %v", i, err)
		}
	}
	if len(last.HeavyHitters) != 0 {
		t.Fatalf("SHHH after silence = %d members, want 0", len(last.HeavyHitters))
	}
	// Traffic returns: detection must resume.
	st, err := StepTimeunit(ada, Timeunit{key("a", "x"): 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.HeavyHitters) == 0 {
		t.Fatal("SHHH empty after traffic returned")
	}
}

func TestADASingleMassiveBurst(t *testing.T) {
	ada, err := NewADA(Config{Theta: 5, WindowLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 8)
	for i := range warm {
		warm[i] = Timeunit{key("a"): 1}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	// One unit with a million records on a brand-new leaf.
	st, err := StepTimeunit(ada, Timeunit{key("z", "deep", "leaf"): 1e6})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, hh := range st.HeavyHitters {
		if hh.Node.Key == key("z", "deep", "leaf") {
			found = true
			if hh.Actual != 1e6 {
				t.Fatalf("burst actual = %v", hh.Actual)
			}
		}
	}
	if !found {
		t.Fatal("burst leaf not in SHHH")
	}
	// And it must decay cleanly.
	for i := 0; i < 3; i++ {
		if _, err := StepTimeunit(ada, Timeunit{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestADAGrowingUniverse(t *testing.T) {
	// New categories appear every step; per-node state slices must
	// grow in lockstep and the SHHH set must stay correct.
	ada, err := NewADA(Config{Theta: 4, WindowLen: 8, RefLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Init([]Timeunit{{key("seed"): 5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		u := Timeunit{
			key("gen", string(rune('a'+i%26)), string(rune('a'+(i/26)%26))): 6,
		}
		st, err := StepTimeunit(ada, u)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ref := shhh.Compute(ada.Tree(), u, 4)
		if len(st.HeavyHitters) != len(ref.Set) {
			t.Fatalf("step %d: |SHHH| %d vs reference %d", i, len(st.HeavyHitters), len(ref.Set))
		}
	}
	if err := ada.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSTAGrowingUniverse(t *testing.T) {
	sta, err := NewSTA(Config{Theta: 4, WindowLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.Init([]Timeunit{{key("seed"): 5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		u := Timeunit{key("n", string(rune('a'+i%26))): 6}
		if _, err := StepTimeunit(sta, u); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := sta.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestADAFractionalWeights(t *testing.T) {
	// Non-integer counts (weighted records) must work end to end.
	ada, err := NewADA(Config{Theta: 2.5, WindowLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 4)
	for i := range warm {
		warm[i] = Timeunit{key("w"): 2.75}
	}
	if _, err := ada.Init(warm); err != nil {
		t.Fatal(err)
	}
	st, err := StepTimeunit(ada, Timeunit{key("w"): 3.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.HeavyHitters) != 1 || math.Abs(st.HeavyHitters[0].Actual-3.25) > 1e-12 {
		t.Fatalf("fractional step = %+v", st.HeavyHitters)
	}
}

func TestADAThetaBoundary(t *testing.T) {
	// A node exactly at θ is a heavy hitter (Definition 1 uses >=).
	ada, err := NewADA(Config{Theta: 5, WindowLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]Timeunit, 4)
	for i := range warm {
		warm[i] = Timeunit{key("e"): 5}
	}
	st, err := ada.Init(warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.HeavyHitters) == 0 {
		t.Fatal("weight == theta must be a member")
	}
	// Just below θ is not.
	st, err = StepTimeunit(ada, Timeunit{key("e"): 4.999})
	if err != nil {
		t.Fatal(err)
	}
	for _, hh := range st.HeavyHitters {
		if hh.Node.Key == key("e") {
			t.Fatal("weight < theta must not be a member")
		}
	}
}
