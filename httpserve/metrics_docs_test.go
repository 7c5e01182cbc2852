package httpserve

import (
	"os"
	"regexp"
	"testing"
)

// TestMetricsDocumented pins the OPERATIONS.md metrics reference
// table to the registered metric set, in both directions: every
// family the server registers must have a table row, and every row
// must name a registered family — 34 of them, so a family cannot
// appear or vanish unnoticed. Run by CI's docs-lint job, so the
// operator documentation cannot drift from the code.
func TestMetricsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(tiresias_[a-z0-9_]+)` \\|")
	documented := make(map[string]bool)
	for _, m := range rowRe.FindAllStringSubmatch(string(raw), -1) {
		if documented[m[1]] {
			t.Errorf("metric %s documented twice in OPERATIONS.md", m[1])
		}
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no metric rows found in OPERATIONS.md — table format changed?")
	}

	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.MetricNames()); n != 35 {
		t.Errorf("server registers %d metric families, want 35", n)
	}
	for _, name := range s.MetricNames() {
		if !documented[name] {
			t.Errorf("registered metric %s has no row in the OPERATIONS.md reference table", name)
		}
		delete(documented, name)
	}
	for name := range documented {
		t.Errorf("OPERATIONS.md documents %s, which is not a registered metric", name)
	}
}
