package tiresias

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface/*.txt from the current go doc -short output")

// TestPublicSurface pins the exported surface of the public packages:
// each golden file is the package's `go doc -short` listing, so every
// change that grows or shrinks the API shows up in the diff.
func TestPublicSurface(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for pkg, golden := range map[string]string{
		".":           "root.txt",
		"./api":       "api.txt",
		"./client":    "client.txt",
		"./httpserve": "httpserve.txt",
	} {
		got, err := exec.Command("go", "doc", "-short", pkg).Output()
		if err != nil {
			t.Fatalf("go doc -short %s: %v", pkg, err)
		}
		path := filepath.Join("testdata", "surface", golden)
		if *updateSurface {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("public surface of %s differs from %s; if the change is intended, regenerate with\n\tgo test -run TestPublicSurface -update-surface .\ngot:\n%s", pkg, path, got)
		}
	}
}
