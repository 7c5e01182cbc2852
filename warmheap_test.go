package tiresias

import (
	"runtime"
	"testing"
	"time"

	"tiresias/internal/gen"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestWarmingStreamHeapPerBufferedEntry bounds what a warming detector
// holds per buffered (category, count) entry. The stream is shaped like
// the busiest of the bench's mixed_fleet streams: the CCD network
// hierarchy at scale 0.1, with the top Zipf share of 4000 records a
// unit spread over 64 streams. ℓ of its units are buffered toward a
// window one unit longer, and the heap the buffer pins is measured by
// dropping it. Each unit is kept as (ID, count) pairs: 12 bytes an
// entry plus a small per-unit header. A map keyed by category string
// pays for a key header, a count and the hash table's slack, about 41
// bytes an entry on this stream, which the bound rules out.
func TestWarmingStreamHeapPerBufferedEntry(t *testing.T) {
	const window = 96
	harmonic := 0.0
	for k := 1; k <= 64; k++ {
		harmonic += 1 / float64(k)
	}
	ds, err := gen.Generate(gen.Config{
		Shape:           gen.CCDNetworkShape(0.1),
		Start:           start(),
		Units:           window,
		Delta:           15 * time.Minute,
		BaseRate:        4000 / harmonic,
		DiurnalStrength: 0.3,
		ZipfS:           1,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(WithWindowLen(window+1), WithTheta(10))
	if err != nil {
		t.Fatal(err)
	}
	screened := func(stepResult) { t.Fatal("a warming detector screened a unit") }
	for _, r := range ds.Records {
		if err := tr.ingest(r, screened); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.flush(screened); err != nil {
		t.Fatal(err)
	}
	if tr.Warm() || len(tr.win.buf) != window {
		t.Fatalf("warm %v with %d buffered units; want %d units still warming", tr.Warm(), len(tr.win.buf), window)
	}
	entries := 0
	for _, u := range tr.win.buf {
		entries += u.Len()
	}
	held := liveHeap()
	tr.win.buf = nil
	perEntry := float64(held-liveHeap()) / float64(entries)
	runtime.KeepAlive(tr)
	t.Logf("%d units, %d entries: %.1f heap bytes per buffered entry", window, entries, perEntry)
	if perEntry > 20 {
		t.Fatalf("the warm-up buffer holds %.1f bytes per (category, count) entry, want <= 20", perEntry)
	}
}
