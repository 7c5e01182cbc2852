package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldens are the committed checkpoint files (written by the root
// package's golden tests): an ADA detector and two Manager stream
// files, one mid-warm-up and one mid-unit.
var goldens = []string{
	"ada_w16.ckpt",
	filepath.Join("manager_w16", "warming.ckpt"),
	filepath.Join("manager_w16", "partial.ckpt"),
}

// reencode writes snap and reads the bytes back, failing the test when
// an accepted snapshot does not survive its own encoding.
func reencode(t *testing.T, snap *Snapshot) ([]byte, *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("Write of an accepted checkpoint: %v", err)
	}
	again, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read of a re-encoded checkpoint: %v", err)
	}
	return buf.Bytes(), again
}

// FuzzCheckpointRead holds the decoder to its contract on arbitrary
// bytes: Read never panics, and whatever it accepts re-encodes to bytes
// that Read accepts again and that re-encode identically (unknown
// sections and non-canonical varints may normalize on the first pass,
// never later). The seeds are the committed goldens, which must
// round-trip byte for byte.
func FuzzCheckpointRead(f *testing.F) {
	for _, name := range goldens {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			f.Fatalf("golden %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			f.Fatalf("golden %s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			f.Fatalf("golden %s re-encodes to %d bytes that differ from its %d", name, buf.Len(), len(data))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, again := reencode(t, snap)
		second, _ := reencode(t, again)
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d", len(first), len(second))
		}
	})
}
