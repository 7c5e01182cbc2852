package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end at 1/50 size: the real
// binary as a child, the output check, then the traced run. It checks
// the plumbing, not the numbers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()
	begin := time.Now()
	for _, trace := range []bool{false, true} {
		b := &bencher{root: root, bin: bin, seed: 1, seconds: smokeSeconds, scale: smokeScale, rounds: 1}
		for i := range workloads {
			w := &workloads[i]
			if trace && w.name != "mixed_fleet" {
				continue // every traced path, on the workload with most groups and streams
			}
			wr, err := b.workload(context.Background(), w, trace)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !wr.Correct || wr.Failed != 0 || wr.FailedShare != 0 {
				t.Errorf("%s: correct=%v failed=%d of %d", w.name, wr.Correct, wr.Failed, wr.Attempted)
			}
			want, got := endToEnd, wr.EndToEnd
			if trace {
				want, got = perLayer, wr.PerLayer
			}
			for _, m := range want {
				if mv, ok := got[m.name]; !ok || mv.Unit != m.unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, m.name, mv.Unit, m.unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
				continue
			}
			for _, m := range endToEnd {
				if got[m.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, got[m.name].Value)
				}
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(begin).Round(time.Millisecond))
}
