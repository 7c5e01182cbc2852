package tiresias

// Crash-point audit of the Manager checkpoint protocol: every
// filesystem operation of a checkpoint is made to fail — first under
// the crash model (the op and everything after it dies), then as a
// transient error — and after every single failure the directory must
// still restore to a complete committed generation. This is the test
// the staging-directory/CURRENT-pointer design exists to pass.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tiresias/internal/fault"
)

// crashOpts keeps the audit's detectors small: the point is fs-op
// coverage, not detection quality.
func crashOpts() []Option {
	return []Option{
		WithDelta(time.Minute),
		WithWindowLen(8),
		WithTheta(0.5),
		WithSeasonality(1.0, 4),
		WithThresholds(Thresholds{RT: 2.0, DT: 5}),
	}
}

// crashRecs is one record per timeunit in [from, to).
func crashRecs(from, to int) []Record {
	base := start()
	var out []Record
	for u := from; u < to; u++ {
		out = append(out, Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)})
	}
	return out
}

// crashScenario builds the audited state on fsys: a two-stream
// manager with generation 1 committed, plus further feeds so the next
// Checkpoint writes a different generation 2.
func crashScenario(t *testing.T, dir string, fsys fault.FS) *Manager {
	t.Helper()
	m, err := NewManager(WithShards(2), WithDetectorOptions(crashOpts()...), withFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, m, "alpha", crashRecs(0, 20))
	feedAll(t, m, "beta", crashRecs(0, 16))
	if n, err := m.Checkpoint(dir); err != nil || n != 2 {
		t.Fatalf("seed checkpoint: n=%d err=%v", n, err)
	}
	feedAll(t, m, "alpha", crashRecs(20, 28))
	feedAll(t, m, "beta", crashRecs(16, 24))
	return m
}

// snapshotFiles reads every regular file under dir (recursively) into
// a path → contents map, via the real filesystem.
func snapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readCurrent returns the generation CURRENT names, or "" if absent.
func readCurrent(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, currentFile))
	if errors.Is(err, fs.ErrNotExist) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// auditRestorable asserts dir restores to a complete two-stream
// manager right now, whatever just happened to it.
func auditRestorable(t *testing.T, label, dir string) *Manager {
	t.Helper()
	restored, err := ManagerFromCheckpoint(dir, WithShards(2), WithDetectorOptions(crashOpts()...))
	if err != nil {
		t.Fatalf("%s: restore failed: %v", label, err)
	}
	if restored.Len() != 2 {
		t.Fatalf("%s: restored %d streams, want 2", label, restored.Len())
	}
	return restored
}

// TestCheckpointCrashPointAudit enumerates every filesystem operation
// of a generation-2 checkpoint and crashes at each one (the op and
// all later ops fail — cleanup included, as after a real power cut).
// Invariant under audit: after every crash point, CURRENT points at a
// complete, readable generation — the untouched generation 1
// (byte-identical to its committed bytes) before the commit point,
// generation 2 after it — and ManagerFromCheckpoint succeeds.
func TestCheckpointCrashPointAudit(t *testing.T) {
	// Probe run: count the fs ops of the audited checkpoint.
	probe := fault.NewInjector(nil)
	probeDir := filepath.Join(t.TempDir(), "ckpt")
	pm := crashScenario(t, probeDir, probe)
	opsBefore := probe.Ops()
	if _, err := pm.Checkpoint(probeDir); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops() - opsBefore
	if total < 20 {
		t.Fatalf("suspiciously few checkpoint ops: %d", total)
	}

	preCommit, postCommit := 0, 0
	for i := int64(1); i <= total; i++ {
		label := fmt.Sprintf("crash at op %d/%d", i, total)
		in := fault.NewInjector(nil)
		dir := filepath.Join(t.TempDir(), "ckpt")
		m := crashScenario(t, dir, in)
		committed := snapshotFiles(t, dir)
		gen1 := readCurrent(t, dir)
		if !strings.HasPrefix(gen1, "ckpt-") {
			t.Fatalf("%s: bad committed generation %q", label, gen1)
		}

		in.FailFrom(i)
		_, err := m.Checkpoint(dir)
		if in.Injected() == 0 {
			t.Fatalf("%s: fault never injected", label)
		}
		if err == nil {
			t.Fatalf("%s: checkpoint reported success while the disk was dead", label)
		}

		cur := readCurrent(t, dir)
		switch cur {
		case gen1:
			// Crash before the commit point: generation 1 must be
			// untouched, byte for byte.
			preCommit++
			after := snapshotFiles(t, dir)
			for rel, want := range committed {
				got, ok := after[rel]
				if !ok {
					t.Fatalf("%s: committed file %s vanished", label, rel)
				}
				if string(got) != string(want) {
					t.Fatalf("%s: committed file %s changed", label, rel)
				}
			}
		default:
			// Crash after the commit point (the pointer flipped before
			// the fault landed, e.g. in pruning): the new generation
			// must be complete and readable.
			if !strings.HasPrefix(cur, "ckpt-") || cur == "" {
				t.Fatalf("%s: CURRENT names %q after crash", label, cur)
			}
			postCommit++
		}
		auditRestorable(t, label, dir)
	}
	if preCommit == 0 || postCommit == 0 {
		t.Fatalf("audit did not cover both sides of the commit point: pre=%d post=%d", preCommit, postCommit)
	}
	t.Logf("chaos-summary: checkpoint-audit/crash: %d crash points audited (%d pre-commit, %d post-commit), every one restored", total, preCommit, postCommit)
}

// TestCheckpointTransientFaultRetry replays the same enumeration
// under the transient model: exactly one operation fails, the
// checkpoint call reports the error, and an immediate retry on the
// healed filesystem commits a fresh complete generation.
func TestCheckpointTransientFaultRetry(t *testing.T) {
	probe := fault.NewInjector(nil)
	probeDir := filepath.Join(t.TempDir(), "ckpt")
	pm := crashScenario(t, probeDir, probe)
	opsBefore := probe.Ops()
	if _, err := pm.Checkpoint(probeDir); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops() - opsBefore

	retried := 0
	for i := int64(1); i <= total; i++ {
		label := fmt.Sprintf("transient at op %d/%d", i, total)
		in := fault.NewInjector(nil)
		dir := filepath.Join(t.TempDir(), "ckpt")
		m := crashScenario(t, dir, in)

		in.FailAt(i)
		if _, err := m.Checkpoint(dir); err == nil {
			t.Fatalf("%s: checkpoint swallowed the fault", label)
		} else if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: err = %v, want the injected fault", label, err)
		}
		// The failed attempt must not have broken the directory.
		auditRestorable(t, label+" (before retry)", dir)

		// Retry on the now-healthy filesystem: must fully succeed.
		n, err := m.Checkpoint(dir)
		if err != nil || n != 2 {
			t.Fatalf("%s: retry n=%d err=%v", label, n, err)
		}
		retried++
		restored := auditRestorable(t, label+" (after retry)", dir)

		// The retried checkpoint carries the full post-feed state:
		// restored statuses match the live manager's exactly.
		want, got := m.Streams(), restored.Streams()
		for j := range want {
			w, g := want[j], got[j]
			if w.Name != g.Name || w.Warm != g.Warm || w.Units != g.Units ||
				w.Anomalies != g.Anomalies || w.PendingWarmup != g.PendingWarmup || !w.UnitStart.Equal(g.UnitStart) {
				t.Fatalf("%s: restored status differs:\n got %+v\nwant %+v", label, g, w)
			}
		}
	}
	t.Logf("chaos-summary: checkpoint-audit/transient: %d transient faults injected, %d retries all committed", total, retried)
}

// TestCheckpointSkipsQuarantinedStreams pins the quarantine/
// checkpoint interaction: a quarantined stream is excluded from new
// generations (its interrupted state must not be persisted), while
// its last committed snapshot remains restorable.
func TestCheckpointSkipsQuarantinedStreams(t *testing.T) {
	trig := fault.NewPanic(1, "ckpt boom")
	m := panickingManager(t, 2, trig)
	feedAll(t, m, "good", crashRecs(0, 20))
	base := start()
	for u := 0; u < 40; u++ {
		if _, err := feed(m, "bad", Record{Path: []string{"pop", "edge"}, Time: base.Add(time.Duration(u) * time.Minute)}); err != nil {
			if !errors.Is(err, ErrStreamQuarantined) {
				t.Fatal(err)
			}
			break
		}
	}
	if len(m.Quarantined()) != 1 {
		t.Fatal("bad stream not quarantined")
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	n, err := m.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("checkpointed %d streams, want only the healthy one", n)
	}
	restored, err := ManagerFromCheckpoint(dir, WithShards(2), WithDetectorOptions(crashOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored %d streams, want 1", restored.Len())
	}
	if _, _, ok := restored.Stream("good"); !ok {
		t.Fatal("healthy stream missing from checkpoint")
	}
}
