package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateQuick = flag.Bool("update-quick", false, "rewrite testdata/quick/*.txt from the current code")

// TestQuickTablesGolden pins the rendered text of every experiment at
// the Quick profile. table3 is skipped: its cells are wall-clock
// times. The files are a record of the reproduced tables, so a change
// that moves a cell must explain why rather than re-record.
func TestQuickTablesGolden(t *testing.T) {
	for _, id := range IDs() {
		if id == "table3" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			r, err := ByID(id, Quick())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick", id+".txt")
			if *updateQuick {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(r.Text), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.Text != string(want) {
				t.Fatalf("%s differs from %s:\n got:\n%s\nwant:\n%s", id, path, r.Text, want)
			}
		})
	}
}
