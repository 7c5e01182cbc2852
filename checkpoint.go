package tiresias

// Public checkpoint surface: Tiresias.Snapshot / Restore persist one
// detector, Manager.Checkpoint / ManagerFromCheckpoint persist a whole
// fleet. The binary format lives in internal/checkpoint; the state
// capture hooks live next to the state they capture (internal/algo,
// internal/stream, internal/forecast, internal/series).

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tiresias/internal/checkpoint"
	"tiresias/internal/detect"
	"tiresias/internal/fault"
	"tiresias/internal/stream"
)

// ErrBadCheckpoint is returned by Restore and ManagerFromCheckpoint
// when the input is not a valid checkpoint of a compatible format
// version: bad magic, unknown version, truncation, a failed per-
// section checksum, or structurally inconsistent state. Test with
// errors.Is.
var ErrBadCheckpoint = checkpoint.ErrBadCheckpoint

// Snapshot serializes the detector's full state — configuration,
// hierarchy, engine state (series, forecasting models, split-rule
// statistics, reference series), and clock — to w in the versioned
// binary checkpoint format. A detector restored from the snapshot
// resumes ProcessUnit/Run mid-stream and emits bit-identical anomalies
// to one that never stopped.
//
// Snapshot may be called warm or cold (a cold snapshot records the
// configuration and any partially grown hierarchy). The state covers
// completed timeunits: records of a unit still being windowed inside
// a surrounding Run belong to that Run's windower, not the detector —
// snapshot between Run calls (Run flushes its final partial unit), or
// use Manager.Checkpoint, which captures each stream's windowing
// position including the partial unit. Like every other method,
// Snapshot is not safe to call concurrently with detector use; a
// Manager checkpoints its streams under their shard locks.
//
//tiresias:acquires nothing
func (t *Tiresias) Snapshot(w io.Writer) error {
	snap, err := t.snapshotState()
	if err != nil {
		return err
	}
	return checkpoint.Write(w, snap)
}

// snapshotState assembles the serializable state of this detector.
func (t *Tiresias) snapshotState() (*checkpoint.Snapshot, error) {
	snap := &checkpoint.Snapshot{
		Config:   configOf(&t.opts),
		Tree:     t.tree,
		Warm:     t.warm,
		Start:    t.start,
		WarmLen:  t.warmLen,
		Instance: t.instance,
		Periods:  t.periods,
		Xi:       t.xi,
	}
	if t.warm {
		es, err := t.engine.ExportState()
		if err != nil {
			return nil, err
		}
		snap.Engine = es
	}
	return snap, nil
}

// Restore rebuilds a detector from a checkpoint written by Snapshot.
// The checkpointed configuration is authoritative; opts are applied on
// top and exist to re-attach what a checkpoint cannot carry — Sinks,
// adjusted Thresholds, a different MaxGap. Changing structural options
// (delta, window length, increment) is rejected: they shape
// the serialized state itself, so a detector with different structure
// must be built fresh with New and re-warmed.
//
// Invalid input — truncated, corrupted (per-section CRC), or written
// by an unknown format version — is rejected with an error wrapping
// ErrBadCheckpoint.
//
//tiresias:acquires nothing
func Restore(r io.Reader, opts ...Option) (*Tiresias, error) {
	snap, err := checkpoint.Read(r)
	if err != nil {
		return nil, err
	}
	if snap.Stream != nil {
		// A per-stream file from a Manager checkpoint carries windowing
		// state (warmup buffer, partial current unit) that a bare
		// detector cannot hold; restoring just the detector would drop
		// those records silently. Mirror restoreStream's check of the
		// opposite mismatch.
		return nil, fmt.Errorf("%w: manager stream checkpoint (stream %q); restore the directory with ManagerFromCheckpoint",
			ErrBadCheckpoint, snap.Stream.Name)
	}
	return restoreFromSnapshot(snap, opts...)
}

// configOf maps the (post-normalization) options onto the serializable
// configuration. Sinks are deliberately absent: they hold live
// resources and are re-attached through Restore's opts.
func configOf(o *options) checkpoint.Config {
	return checkpoint.Config{
		Delta:         o.delta,
		Increment:     o.increment,
		WindowLen:     o.windowLen,
		Theta:         o.theta,
		RT:            o.thresholds.RT,
		DT:            o.thresholds.DT,
		Algorithm:     adaAlgorithm,
		Rule:          int(o.rule),
		RuleAlpha:     o.ruleAlpha,
		RefLevels:     o.refLevels,
		Lambda:        o.lambda,
		Eta:           o.eta,
		HWAlpha:       o.hwAlpha,
		HWBeta:        o.hwBeta,
		HWGamma:       o.hwGamma,
		AutoSeason:    o.autoSeason,
		SeasonPeriods: o.seasonPeriods,
		SeasonXi:      o.seasonXi,
		MaxGap:        o.maxGap,
	}
}

// adaAlgorithm is the engine selector every checkpoint carries in
// Config.Algorithm: ADA, the only engine a detector runs.
const adaAlgorithm = 1

// optionsFrom is the inverse of configOf. The values are already
// normalized (New's WithIncrement rescaling ran before the snapshot),
// so no derivation is re-applied.
func optionsFrom(c checkpoint.Config) options {
	return options{
		delta:         c.Delta,
		increment:     c.Increment,
		windowLen:     c.WindowLen,
		theta:         c.Theta,
		thresholds:    detect.Thresholds{RT: c.RT, DT: c.DT},
		rule:          SplitRule(c.Rule),
		ruleAlpha:     c.RuleAlpha,
		refLevels:     c.RefLevels,
		lambda:        c.Lambda,
		eta:           c.Eta,
		hwAlpha:       c.HWAlpha,
		hwBeta:        c.HWBeta,
		hwGamma:       c.HWGamma,
		autoSeason:    c.AutoSeason,
		seasonPeriods: c.SeasonPeriods,
		seasonXi:      c.SeasonXi,
		maxGap:        c.MaxGap,
	}
}

// restoreFromSnapshot rebuilds a detector from decoded checkpoint
// state, shared by Restore and ManagerFromCheckpoint.
func restoreFromSnapshot(snap *checkpoint.Snapshot, opts ...Option) (*Tiresias, error) {
	o := optionsFrom(snap.Config)
	base := o
	for _, op := range opts {
		op.apply(&o)
	}
	if o.delta != base.delta || o.windowLen != base.windowLen || o.increment != base.increment {
		return nil, errors.New("tiresias: Restore cannot change structural options (delta, window length, increment); build a fresh detector with New and re-warm instead")
	}
	if o.delta <= 0 || o.windowLen < 2 {
		return nil, fmt.Errorf("%w: configuration (delta %v, window %d)", ErrBadCheckpoint, o.delta, o.windowLen)
	}
	if snap.Config.Algorithm != adaAlgorithm {
		return nil, fmt.Errorf("%w: engine selector %d (only ADA, %d, restores)", ErrBadCheckpoint, snap.Config.Algorithm, adaAlgorithm)
	}
	det, err := detect.New(o.thresholds)
	if err != nil {
		return nil, err
	}
	t := &Tiresias{opts: o, detector: det, tree: snap.Tree}
	if !snap.Warm {
		return t, nil
	}
	t.warm = true
	t.start = snap.Start
	t.warmLen = snap.WarmLen
	t.instance = snap.Instance
	t.periods = append([]int(nil), snap.Periods...)
	t.xi = snap.Xi
	t.engine, err = t.newEngine()
	if err != nil {
		return nil, err
	}
	st, err := t.engine.ImportState(snap.Engine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	t.lastState = st
	return t, nil
}

// checkpointExt is the filename extension of per-stream checkpoint
// files inside a Manager checkpoint directory.
const checkpointExt = ".ckpt"

// currentFile is the pointer file naming the live checkpoint
// generation inside a Manager checkpoint directory.
const currentFile = "CURRENT"

// ErrNoCheckpoint is returned by ManagerFromCheckpoint when the
// directory holds no checkpoint at all — a missing or never-written
// directory. It is distinct from ErrBadCheckpoint (which means a
// checkpoint exists but is unreadable) so callers can treat "nothing
// to restore yet" as a cold start.
var ErrNoCheckpoint = errors.New("tiresias: no checkpoint in directory")

// Checkpoint snapshots every live stream — detector state plus the
// windowing position, including the partial current timeunit — into
// dir, one self-contained file per stream, and returns the number of
// streams written. Shards are checkpointed concurrently, each under
// its own lock, so feeders of other shards keep running while one
// shard is being serialized.
//
// The directory is owned by the Manager and replaced crash-safely:
// each checkpoint is staged as a fresh generation subdirectory
// (ckpt-NNNNNNNN) and the CURRENT pointer file is renamed into place
// only after every stream file is written, so a crash or write error
// mid-checkpoint leaves the previous complete generation untouched
// and restorable. Older generations are pruned after the pointer
// moves. Concurrent Checkpoint calls on one Manager (a periodic timer
// racing an on-demand trigger) are serialized internally; two
// processes must not checkpoint into the same directory.
//
// Quarantined streams are excluded: a panic interrupted their
// in-memory state mid-update, so serializing it would persist
// corruption — the last committed generation keeps their last good
// snapshot instead.
//
//tiresias:acquires Manager.ckptMu, pipeline.mu, pipeline.admitMu, managerShard.mu, Manager.ckptStatsMu
func (m *Manager) Checkpoint(dir string) (int, error) {
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// On a pipelined Manager, flush the ingestion queues first: every
	// record enqueued before this call is windowed into its stream
	// before the streams are serialized, so a checkpoint never
	// silently forgets accepted-but-queued records. Records enqueued
	// while the checkpoint runs may or may not be included — exactly
	// the guarantee synchronous feeders already have.
	if m.pipe != nil {
		m.pipe.drain()
	}
	fsys := m.fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	gen, err := nextGeneration(fsys, dir)
	if err != nil {
		return 0, err
	}
	genName := fmt.Sprintf("ckpt-%08d", gen)
	staging := filepath.Join(dir, "."+genName+".tmp")
	if err := fsys.RemoveAll(staging); err != nil {
		return 0, err
	}
	if err := fsys.Mkdir(staging, 0o755); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(m.shards))
	counts := make([]int, len(m.shards))
	for i := range m.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panic on a checkpoint goroutine (a corrupt detector
			// state the quarantine latch has not caught yet) must fail
			// this checkpoint, not kill the process: nothing commits
			// until every shard succeeded, so the previous generation
			// stays live.
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("tiresias: checkpoint shard %d: panic: %v", i, p)
				}
			}()
			sh := &m.shards[i]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			seq := 0
			for name, ms := range sh.streams {
				if ms.quarantined {
					continue
				}
				path := filepath.Join(staging, fmt.Sprintf("s%04d-%04d%s", i, seq, checkpointExt))
				seq++
				if err := writeStreamFile(fsys, path, name, ms); err != nil {
					errs[i] = fmt.Errorf("tiresias: checkpoint stream %q: %w", name, err)
					return
				}
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fsys.RemoveAll(staging)
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	// Make the staged files durable before any rename references them.
	if err := syncDir(fsys, staging); err != nil {
		fsys.RemoveAll(staging)
		return 0, err
	}
	final := filepath.Join(dir, genName)
	if err := fsys.Rename(staging, final); err != nil {
		fsys.RemoveAll(staging)
		return 0, err
	}
	// The commit point: readers follow CURRENT, which flips atomically
	// (setCurrent syncs the pointer and the directory).
	if err := setCurrent(fsys, dir, genName); err != nil {
		return 0, err
	}
	m.ckptStatsMu.Lock()
	m.ckptStats = CheckpointStats{
		Checkpoints:         m.ckptStats.Checkpoints + 1,
		Generation:          gen,
		LastStreams:         total,
		LastDurationSeconds: time.Since(start).Seconds(),
		LastAt:              time.Now(),
	}
	m.ckptStatsMu.Unlock()
	return total, pruneGenerations(fsys, dir, genName)
}

// nextGeneration returns one past the highest generation number
// present in dir.
func nextGeneration(fsys fault.FS, dir string) (int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	maxGen := 0
	for _, e := range entries {
		var g int
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d", &g); n == 1 && g > maxGen {
			maxGen = g
		}
	}
	return maxGen + 1, nil
}

// setCurrent atomically points the CURRENT file at a generation. The
// pointer content is synced before the rename and the directory after
// it, so the flip is durable across power loss, not just process
// crashes.
func setCurrent(fsys fault.FS, dir, genName string) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(genName + "\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(fsys fault.FS, path string) error {
	d, err := fsys.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// pruneGenerations removes everything in dir except the kept
// generation and the CURRENT pointer: older generations, abandoned
// staging directories, and stream files from the pre-generation flat
// layout.
func pruneGenerations(fsys fault.FS, dir, keep string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if name == keep || name == currentFile {
			continue
		}
		stale := strings.HasPrefix(name, "ckpt-") ||
			strings.HasPrefix(name, ".ckpt-") ||
			strings.HasSuffix(name, checkpointExt) ||
			name == currentFile+".tmp"
		if stale {
			errs = append(errs, fsys.RemoveAll(filepath.Join(dir, name)))
		}
	}
	return errors.Join(errs...)
}

// writeStreamFile writes one managed stream's checkpoint into the
// staging directory (whole-directory staging provides the atomicity).
// The caller holds the stream's shard lock.
func writeStreamFile(fsys fault.FS, path, name string, ms *managedStream) error {
	snap, err := ms.det.snapshotState()
	if err != nil {
		return err
	}
	snap.Stream = &checkpoint.StreamState{
		Name:      name,
		Windower:  ms.w.State(),
		WarmBuf:   ms.warmBuf,
		First:     ms.first.at,
		FirstSeen: ms.first.seen,
		Dirty:     ms.dirty,
		Units:     ms.units,
		Anoms:     ms.anoms,
	}
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if err := checkpoint.Write(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ManagerFromCheckpoint rebuilds a Manager from a directory written by
// Checkpoint: every *.ckpt stream file is restored — detector, warmup
// buffer, windowing position including the partial current unit — and
// ingestion resumes exactly where Feed left off, producing the same
// anomalies an uninterrupted Manager would have.
//
// opts configure the rebuilt Manager the same way NewManager does.
// Options given through WithDetectorOptions are additionally applied
// to every restored detector (the way Restore applies them), which is
// how sinks are re-attached after a restart; a factory given through
// WithDetectorFactory only serves streams created after the restore.
func ManagerFromCheckpoint(dir string, opts ...ManagerOption) (*Manager, error) {
	m, err := NewManager(opts...)
	if err != nil {
		return nil, err
	}
	src, err := resolveCheckpointDir(m.fsys, dir)
	if err != nil {
		return nil, err
	}
	files, err := m.fsys.Glob(filepath.Join(src, "*"+checkpointExt))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	for _, path := range files {
		if err := m.restoreStream(path); err != nil {
			return nil, fmt.Errorf("tiresias: restore %s: %w", path, err)
		}
	}
	return m, nil
}

// resolveCheckpointDir follows the CURRENT pointer to the live
// generation subdirectory; a directory without one (the
// pre-generation flat layout, or a generation directory given
// directly) is used as is.
func resolveCheckpointDir(fsys fault.FS, dir string) (string, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, currentFile))
	if errors.Is(err, fs.ErrNotExist) {
		return dir, nil
	}
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(data))
	if name == "" || name != filepath.Base(name) || !strings.HasPrefix(name, "ckpt-") {
		return "", fmt.Errorf("%w: CURRENT names %q", ErrBadCheckpoint, name)
	}
	return filepath.Join(dir, name), nil
}

// restoreStream loads one stream checkpoint file into the Manager.
func (m *Manager) restoreStream(path string) error {
	f, err := m.fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := checkpoint.Read(f)
	if err != nil {
		return err
	}
	ss := snap.Stream
	if ss == nil {
		return fmt.Errorf("%w: detector checkpoint without a stream section (written by Snapshot, not Manager.Checkpoint)", ErrBadCheckpoint)
	}
	det, err := restoreFromSnapshot(snap, m.detectorOpts...)
	if err != nil {
		return err
	}
	if ss.Windower.Delta != det.Delta() {
		return fmt.Errorf("%w: windower delta %v, detector delta %v", ErrBadCheckpoint, ss.Windower.Delta, det.Delta())
	}
	w, err := stream.RestoreWindower(ss.Windower, det.tree)
	if err != nil {
		return err
	}
	// The gap bound is a Manager-level knob (set on every windower at
	// stream creation); the restoring Manager's configuration wins over
	// the value frozen in the checkpoint, exactly as if the stream had
	// been created under this Manager.
	w.SetMaxGap(m.maxGap)
	ms := &managedStream{
		det:     det,
		w:       w,
		warmBuf: ss.WarmBuf,
		first:   startClock{at: ss.First, seen: ss.FirstSeen},
		dirty:   ss.Dirty,
		units:   ss.Units,
		anoms:   ss.Anoms,
		stepObs: m.stepObs,
	}
	sh := m.shardOf(ss.Name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.streams[ss.Name]; ok {
		return fmt.Errorf("%w: duplicate stream %q", ErrBadCheckpoint, ss.Name)
	}
	sh.streams[ss.Name] = ms
	return nil
}
