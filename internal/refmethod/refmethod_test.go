package refmethod

import (
	"testing"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

func key(parts ...string) hierarchy.Key { return hierarchy.KeyOf(parts) }

// pc is one (category, direct count) pair of a test timeunit.
type pc struct {
	k hierarchy.Key
	v float64
}

// unit builds a timeunit over tree from pairs, interned in the order
// given.
func unit(tree *hierarchy.Tree, pairs ...pc) *algo.DenseUnit {
	u := &algo.DenseUnit{}
	for _, p := range pairs {
		u.Add(tree.Intern(p.k.Path()), p.v)
	}
	return u
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero K", cfg: Config{K: 0, Window: 4}},
		{name: "tiny window", cfg: Config{K: 3, Window: 1}},
		{name: "negative MinSigma", cfg: Config{K: 3, Window: 4, MinSigma: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg, hierarchy.New()); err == nil {
				t.Fatal("New must fail")
			}
		})
	}
	if err := (Config{K: 3, Window: 96, MinSigma: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChartAlarmsOnSpike(t *testing.T) {
	tree := hierarchy.New()
	c, err := New(Config{K: 3, Window: 8, MinSigma: 0.5}, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate with steady traffic on vho1, then spike it.
	for i := 0; i < 10; i++ {
		u := unit(tree, pc{key("vho1", "io1"), 5}, pc{key("vho2", "io1"), 5})
		if alarms := c.Observe(u); len(alarms) != 0 {
			t.Fatalf("calibration alarm at %d: %+v", i, alarms)
		}
	}
	u := unit(tree, pc{key("vho1", "io1"), 50}, pc{key("vho2", "io1"), 5})
	alarms := c.Observe(u)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(alarms))
	}
	a := alarms[0]
	if a.Key != key("vho1") {
		t.Fatalf("alarm key = %v, want vho1", a.Key)
	}
	if a.Instance != 10 {
		t.Fatalf("alarm instance = %d, want 10", a.Instance)
	}
	if a.Value != 50 || a.Mean != 5 {
		t.Fatalf("alarm stats = %+v", a)
	}
	if c.instance != 11 {
		t.Fatalf("Instance = %d, want 11", c.instance)
	}
}

func TestChartIgnoresDeepSpike(t *testing.T) {
	// A spike confined to one DSLAM that barely moves the VHO
	// aggregate must not alarm — the blind spot §VII-B discusses.
	tree := hierarchy.New()
	c, err := New(Config{K: 3, Window: 8, MinSigma: 1}, tree)
	if err != nil {
		t.Fatal(err)
	}
	steady := make([]pc, 20)
	for d := range steady {
		steady[d] = pc{key("vho1", "io1", "co1", "dslam"+string(rune('a'+d))), 5}
	}
	for i := 0; i < 10; i++ {
		c.Observe(unit(tree, steady...))
	}
	bump := append([]pc(nil), steady...)
	bump[0].v = 8 // small local bump on dslama
	if alarms := c.Observe(unit(tree, bump...)); len(alarms) != 0 {
		t.Fatalf("VHO-level chart must miss a small deep spike, got %+v", alarms)
	}
}

func TestChartNoAlarmBeforeCalibration(t *testing.T) {
	tree := hierarchy.New()
	c, err := New(Config{K: 1, Window: 16, MinSigma: 0}, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		u := unit(tree, pc{key("v", "x"), float64(1 + i*100)})
		if alarms := c.Observe(u); len(alarms) != 0 {
			t.Fatalf("no alarms before the window fills, got %+v at %d", alarms, i)
		}
	}
}

func TestChartMinSigmaFloorsNoise(t *testing.T) {
	tree := hierarchy.New()
	c, err := New(Config{K: 3, Window: 4, MinSigma: 10}, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Observe(unit(tree, pc{key("v"), 5}))
	}
	// With sigma floored at 10, a bump to 20 (mean 5 + 15 < 3*10) is
	// within limits.
	if alarms := c.Observe(unit(tree, pc{key("v"), 20})); len(alarms) != 0 {
		t.Fatalf("MinSigma must suppress small excursions, got %+v", alarms)
	}
}

// TestChartNodeEntersAtFirstTouch runs a chart over a tree that
// already holds every category, as a collected stream's does: a VHO
// starts calibrating at the first unit that touches it, not at the
// first unit the chart sees.
func TestChartNodeEntersAtFirstTouch(t *testing.T) {
	tree := hierarchy.New()
	tree.Intern(key("vho2", "io1").Path()) // named only by later units
	c, err := New(Config{K: 3, Window: 4, MinSigma: 1}, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Observe(unit(tree, pc{key("vho1", "io1"), 5}))
	}
	if alarms := c.Observe(unit(tree, pc{key("vho1", "io1"), 5}, pc{key("vho2", "io1"), 100})); len(alarms) != 0 {
		t.Fatalf("vho2 alarmed before its own calibration window: %+v", alarms)
	}
}
