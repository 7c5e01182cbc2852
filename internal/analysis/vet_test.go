package analysis_test

import (
	"path/filepath"
	"testing"

	"tiresias/internal/analysis"
	"tiresias/internal/analysis/analysistest"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "hotpath", analysis.Hotpath)
}

func TestLockguard(t *testing.T) {
	analysistest.Run(t, "lockguard", analysis.Locks)
}

func TestEscapecheck(t *testing.T) {
	// The plain heap escapes the compiler reports, run through the one
	// analyzer that owns the //tiresias:hotpath contract.
	analysistest.Run(t, "escapecheck", analysis.Hotpath)
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "lockorder", analysis.Locks)
}

func TestGoroline(t *testing.T) {
	analysistest.Run(t, "goroline", analysis.NewGoroline([]string{"goroline"}))
}

func TestAtomiccheck(t *testing.T) {
	analysistest.Run(t, "atomiccheck", analysis.Atomiccheck)
}

func TestIgnoreEdgeCases(t *testing.T) {
	// The ignorecase fixture pins the //tiresias:ignore grammar itself
	// — directive above a multi-line statement, several analyzers in
	// one directive, missing/empty justifications rejected — using
	// hotpath as the reporting vehicle.
	analysistest.Run(t, "ignorecase", analysis.Hotpath)
}

func TestWireerr(t *testing.T) {
	analysistest.Run(t, "wireerr", analysis.Wireerr)
}

func TestCkptsec(t *testing.T) {
	analysistest.Run(t, "ckptsec", analysis.Ckptsec)
}

func TestDeadexport(t *testing.T) {
	analysistest.Run(t, "deadexport", analysis.Deadexport)
}

func TestDeadexportNeedsWholeModule(t *testing.T) {
	// lib's exports are used from cmd/app, which a load of lib alone
	// does not see: the analyzer must stay silent, not guess.
	t.Chdir(filepath.Join("testdata", "src", "deadexport"))
	pkgs, err := analysis.Load([]string{"./internal/lib"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.Deadexport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow load reported %s", d)
	}
}

func TestForbidImport(t *testing.T) {
	rules := []analysis.ForbidRule{{
		Packages: []string{"forbidfix"},
		Imports:  []string{"encoding/json"},
		Calls:    []string{"fmt.Sprintf", "time.Now"},
	}}
	analysistest.Run(t, "forbidfix", analysis.NewForbidImport(rules))
}

func TestForbidImportServingDefaults(t *testing.T) {
	// The fixture package is named httpserve, so the default rules —
	// not a test-local copy — are what it pins.
	analysistest.Run(t, "httpserve", analysis.NewForbidImport(nil))
}

func TestTagSetFingerprintCanonical(t *testing.T) {
	// The formula is order-insensitive and position-sensitive: the
	// ckptsec analyzer and the checkpoint package's recorded constant
	// both depend on that.
	a := analysis.TagSetFingerprint([]string{"bbbb", "aaaa"})
	b := analysis.TagSetFingerprint([]string{"aaaa", "bbbb"})
	if a != b {
		t.Errorf("fingerprint is order-sensitive: %q != %q", a, b)
	}
	if c := analysis.TagSetFingerprint([]string{"aaab", "bbb"}); c == a {
		t.Errorf("distinct tag sets collide: %q", c)
	}
}
