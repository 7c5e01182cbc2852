// Package checkpoint implements the durable snapshot format of a
// Tiresias detector: a compact, self-describing binary codec that
// serializes the full detector state — configuration, category
// hierarchy, engine state (series rings, forecasting models,
// split-rule statistics, reference series), detector clock, and the
// optional per-stream windowing position a Manager needs to resume
// mid-unit.
//
// # Wire format
//
// A checkpoint is a fixed 8-byte magic ("TIRESCKP") and a uvarint
// format version, followed by framed sections and a terminating END
// marker:
//
//	section := tag[4] | uvarint payloadLen | payload | crc32(payload)
//
// Sections appear in a fixed order (CFG., TRE., DET., ENG., STR.,
// END.) but readers locate them by tag and skip unknown tags, so new
// sections can be added without a version bump. Integers are varints,
// floats are little-endian IEEE-754 bits — float state round-trips
// bit-exactly, which is what makes a restored detector emit anomalies
// identical to one that never restarted. Every decoding failure —
// truncation, a flipped byte (caught by the per-section CRC32), an
// unknown version — is reported as an error wrapping ErrBadCheckpoint.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/stream"
)

// magic identifies a Tiresias checkpoint stream.
const magic = "TIRESCKP"

// Version is the current checkpoint format version. Read rejects
// checkpoints written by a newer (or otherwise unknown) version with
// ErrBadCheckpoint.
const Version = 1

// Section tags.
const (
	tagConfig   = "CFG."
	tagTree     = "TRE."
	tagDetector = "DET."
	tagEngine   = "ENG."
	tagStream   = "STR."
	tagEnd      = "END."
)

// tagSetFingerprint records the FNV-1a fingerprint of the sorted
// section tag set. The ckptsec analyzer (tiresias-vet) recomputes it
// and fails the build when the tag set changes without this constant
// — and therefore this comment — being revisited: adding a
// forward-skippable section keeps Version, while removing or
// repurposing a tag requires a Version bump.
const tagSetFingerprint = "fnv1a:cb88d35f"

// ErrBadCheckpoint is the sentinel wrapped by every decode failure:
// bad magic, unknown version, truncated input, checksum mismatch, or
// structurally inconsistent state. Callers test with errors.Is.
var ErrBadCheckpoint = errors.New("checkpoint: bad or incompatible checkpoint")

// Config carries the detector configuration needed to reconstruct an
// equivalent engine. Values are post-normalization (after any
// WithIncrement rescaling), so restore never re-applies derivations.
type Config struct {
	// Delta is the timeunit size Δ; Increment the configured ς.
	Delta, Increment time.Duration
	// WindowLen is ℓ, the sliding-window length in timeunits.
	WindowLen int
	// Theta is the heavy-hitter threshold θ.
	Theta float64
	// RT and DT are the Definition-4 sensitivity thresholds.
	RT, DT float64
	// Algorithm is the engine selector. Only ADA (1) is written or
	// restored; the field keeps the format's bytes unchanged.
	Algorithm int
	// Rule is the ADA split rule; RuleAlpha the EWMA-rule rate.
	Rule      int
	RuleAlpha float64
	// RefLevels is h, the reference time-series depth.
	RefLevels int
	// Lambda and Eta configure §V-B6 multi-timescale series.
	Lambda, Eta int
	// HWAlpha, HWBeta, HWGamma are the Holt-Winters parameters.
	HWAlpha, HWBeta, HWGamma float64
	// AutoSeason records whether Step-3 analysis was enabled;
	// SeasonPeriods/SeasonXi the explicit configuration otherwise.
	AutoSeason    bool
	SeasonPeriods []int
	SeasonXi      float64
	// MaxGap is the per-record gap-filling bound.
	MaxGap int
}

// StreamState is the Manager-level per-stream extra state: the stream
// name, the live windowing position (including the partial current
// unit), the warmup buffer of a not-yet-warm detector, and the
// bookkeeping counters surfaced by Manager.Streams.
type StreamState struct {
	// Name is the stream name given to Feed.
	Name string
	// Windower is the captured windowing position.
	Windower stream.WindowerState
	// WarmBuf holds the buffered warmup units (empty once warm).
	WarmBuf []algo.Timeunit
	// First is the wall-clock start of the first observed unit;
	// FirstSeen whether any record was observed.
	First     time.Time
	FirstSeen bool
	// Dirty reports records in the current unit since the last flush.
	Dirty bool
	// Units and Anoms are the processed-unit and anomaly counters.
	Units, Anoms int
}

// Snapshot is the full decoded content of one checkpoint stream: a
// detector (configuration, hierarchy, clock, and — when warm — engine
// state) plus the optional Manager stream section.
type Snapshot struct {
	// Config is the detector configuration.
	Config Config
	// Tree is the category hierarchy, rebuilt with identical node IDs.
	Tree *hierarchy.Tree
	// Warm reports whether the detector had completed warmup.
	Warm bool
	// Start is the wall-clock start of the first timeunit.
	Start time.Time
	// WarmLen and Instance are the detector clock: units ingested by
	// Warmup and units processed since.
	WarmLen, Instance int
	// Periods and Xi are the seasonality actually in use.
	Periods []int
	Xi      float64
	// Engine is the exported engine state; nil when not warm.
	Engine *algo.EngineState
	// Stream is the Manager per-stream section; nil for plain
	// detector snapshots.
	Stream *StreamState
}

// Write serializes a snapshot onto w in the documented wire format.
func Write(w io.Writer, snap *Snapshot) error {
	if snap.Tree == nil {
		return fmt.Errorf("checkpoint: snapshot has no hierarchy")
	}
	var hdr payload
	hdr.buf = append(hdr.buf, magic...)
	hdr.putUvarint(Version)
	if _, err := w.Write(hdr.buf); err != nil {
		return err
	}
	if err := writeSection(w, tagConfig, encodeConfig(&snap.Config)); err != nil {
		return err
	}
	if err := writeSection(w, tagTree, encodeTree(snap.Tree)); err != nil {
		return err
	}
	if err := writeSection(w, tagDetector, encodeDetector(snap)); err != nil {
		return err
	}
	if snap.Engine != nil {
		if err := writeSection(w, tagEngine, encodeEngine(snap.Engine)); err != nil {
			return err
		}
	}
	if snap.Stream != nil {
		p, err := encodeStream(snap.Stream, snap.Tree)
		if err != nil {
			return err
		}
		if err := writeSection(w, tagStream, p); err != nil {
			return err
		}
	}
	return writeSection(w, tagEnd, &payload{})
}

// Read decodes one checkpoint stream from r, validating magic,
// version, per-section checksums, and cross-section consistency (a
// warm detector must carry an engine section, IDs must fall inside
// the decoded hierarchy, ...).
func Read(r io.Reader) (*Snapshot, error) {
	s := &byteScanner{r: r}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(s.r, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated magic", ErrBadCheckpoint)
	}
	if string(hdr) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, hdr)
	}
	version, err := readUvarint(s)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated version", ErrBadCheckpoint)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads version %d",
			ErrBadCheckpoint, version, Version)
	}
	snap := &Snapshot{}
	seen := map[string]bool{}
	for {
		tag, buf, err := readSection(s)
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing END marker (truncated checkpoint)", ErrBadCheckpoint)
		}
		if err != nil {
			return nil, err
		}
		if tag == tagEnd {
			break
		}
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrBadCheckpoint, tag)
		}
		seen[tag] = true
		switch tag {
		case tagConfig:
			err = decodeConfig(buf, &snap.Config)
		case tagTree:
			snap.Tree, err = decodeTree(buf)
		case tagDetector:
			err = decodeDetector(buf, snap)
		case tagEngine:
			snap.Engine, err = decodeEngine(buf)
		case tagStream:
			if !seen[tagTree] {
				return nil, fmt.Errorf("%w: stream section before hierarchy", ErrBadCheckpoint)
			}
			snap.Stream, err = decodeStream(buf, snap.Tree)
		default:
			// Unknown section from a future writer of the same
			// version: skippable by construction (framing carries the
			// length), keeping the format forward-extensible.
		}
		if err != nil {
			return nil, err
		}
	}
	if !seen[tagConfig] || !seen[tagTree] || !seen[tagDetector] {
		return nil, fmt.Errorf("%w: missing mandatory section", ErrBadCheckpoint)
	}
	if snap.Warm && snap.Engine == nil {
		return nil, fmt.Errorf("%w: warm detector without engine state", ErrBadCheckpoint)
	}
	return snap, nil
}

// readUvarint reads a uvarint directly from the scanner (outside any
// section payload — only the header version uses this).
func readUvarint(s *byteScanner) (uint64, error) {
	return binary.ReadUvarint(s)
}

// --- Config section ---

func encodeConfig(c *Config) *payload {
	p := &payload{}
	p.putVarint(int64(c.Delta))
	p.putVarint(int64(c.Increment))
	p.putInt(c.WindowLen)
	p.putF64(c.Theta)
	p.putF64(c.RT)
	p.putF64(c.DT)
	p.putInt(c.Algorithm)
	p.putInt(c.Rule)
	p.putF64(c.RuleAlpha)
	p.putInt(c.RefLevels)
	p.putInt(c.Lambda)
	p.putInt(c.Eta)
	p.putF64(c.HWAlpha)
	p.putF64(c.HWBeta)
	p.putF64(c.HWGamma)
	p.putBool(c.AutoSeason)
	p.putInts(c.SeasonPeriods)
	p.putF64(c.SeasonXi)
	p.putInt(c.MaxGap)
	return p
}

func decodeConfig(buf []byte, c *Config) error {
	r := &reader{buf: buf}
	c.Delta = time.Duration(r.getVarint())
	c.Increment = time.Duration(r.getVarint())
	c.WindowLen = r.getInt()
	c.Theta = r.getF64()
	c.RT = r.getF64()
	c.DT = r.getF64()
	c.Algorithm = r.getInt()
	c.Rule = r.getInt()
	c.RuleAlpha = r.getF64()
	c.RefLevels = r.getInt()
	c.Lambda = r.getInt()
	c.Eta = r.getInt()
	c.HWAlpha = r.getF64()
	c.HWBeta = r.getF64()
	c.HWGamma = r.getF64()
	c.AutoSeason = r.getBool()
	c.SeasonPeriods = r.getInts()
	c.SeasonXi = r.getF64()
	c.MaxGap = r.getInt()
	return r.done(tagConfig)
}

// --- Tree section ---

// encodeTree writes the hierarchy as (nodeCount, then parentID + label
// per non-root node in ID order). IDs are assigned in insertion order,
// so replaying the list reproduces the exact ID space — which every
// other section depends on.
func encodeTree(t *hierarchy.Tree) *payload {
	p := &payload{}
	nodes := t.Nodes()
	p.putInt(len(nodes))
	for _, n := range nodes[1:] {
		p.putInt(n.Parent().ID)
		p.putString(n.Label)
	}
	return p
}

func decodeTree(buf []byte) (*hierarchy.Tree, error) {
	r := &reader{buf: buf}
	n := r.getInt()
	if r.err != nil {
		return nil, r.done(tagTree)
	}
	// Bound the claimed node count by what the payload could possibly
	// encode (each non-root node takes at least two bytes: a parent
	// varint and a label length), so a tiny crafted section cannot
	// drive a multi-gigabyte preallocation.
	if n < 1 || n > maxSliceLen || (n-1) > len(buf)-r.off {
		return nil, fmt.Errorf("%w: hierarchy claims %d nodes", ErrBadCheckpoint, n)
	}
	t := hierarchy.New()
	paths := make([][]string, 1, n)
	paths[0] = nil // root
	for id := 1; id < n; id++ {
		parent := r.getInt()
		label := r.getString()
		if r.err != nil {
			return nil, r.done(tagTree)
		}
		if parent < 0 || parent >= id {
			return nil, fmt.Errorf("%w: node %d has parent %d (IDs are insertion-ordered)", ErrBadCheckpoint, id, parent)
		}
		path := make([]string, len(paths[parent])+1)
		copy(path, paths[parent])
		path[len(path)-1] = label
		node := t.Insert(path)
		if node.ID != id {
			return nil, fmt.Errorf("%w: duplicate node %q", ErrBadCheckpoint, node.Key)
		}
		paths = append(paths, path)
	}
	if err := r.done(tagTree); err != nil {
		return nil, err
	}
	return t, nil
}

// --- Detector section ---

func encodeDetector(s *Snapshot) *payload {
	p := &payload{}
	p.putBool(s.Warm)
	p.putTime(s.Start)
	p.putInt(s.WarmLen)
	p.putInt(s.Instance)
	p.putInts(s.Periods)
	p.putF64(s.Xi)
	return p
}

func decodeDetector(buf []byte, s *Snapshot) error {
	r := &reader{buf: buf}
	s.Warm = r.getBool()
	s.Start = r.getTime()
	s.WarmLen = r.getInt()
	s.Instance = r.getInt()
	s.Periods = r.getInts()
	s.Xi = r.getF64()
	if err := r.done(tagDetector); err != nil {
		return err
	}
	if s.WarmLen < 0 || s.Instance < 0 {
		return fmt.Errorf("%w: negative detector clock (warmLen %d, instance %d)", ErrBadCheckpoint, s.WarmLen, s.Instance)
	}
	return nil
}

// --- Engine section ---

func putModel(p *payload, m forecast.State) {
	p.putString(m.Kind)
	p.putInts(m.Ints)
	p.putFloats(m.Floats)
}

func getModel(r *reader) forecast.State {
	return forecast.State{Kind: r.getString(), Ints: r.getInts(), Floats: r.getFloats()}
}

func putRing(p *payload, rs algo.RingState) {
	p.putInt(rs.Cap)
	p.putFloats(rs.Values)
}

func getRing(r *reader) algo.RingState {
	return algo.RingState{Cap: r.getInt(), Values: r.getFloats()}
}

func putMulti(p *payload, ms *series.MultiScaleState) {
	p.putBool(ms != nil)
	if ms == nil {
		return
	}
	p.putInt(ms.Lambda)
	p.putInt(ms.Ell)
	p.putInts(ms.Fills)
	p.putLen(len(ms.Scales))
	for _, s := range ms.Scales {
		p.putFloats(s)
	}
}

func getMulti(r *reader) *series.MultiScaleState {
	if !r.getBool() {
		return nil
	}
	ms := &series.MultiScaleState{
		Lambda: r.getInt(),
		Ell:    r.getInt(),
		Fills:  r.getInts(),
	}
	n := r.getLen()
	ms.Scales = make([][]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ms.Scales = append(ms.Scales, r.getFloats())
	}
	return ms
}

func encodeEngine(e *algo.EngineState) *payload {
	p := &payload{}
	p.putString(e.Kind)
	p.putInt(e.Instance)
	p.putBools(e.InSHHH)
	p.putBools(e.Ishh)
	p.putFloats(e.Weight)
	p.putFloats(e.RawA)
	p.putFloats(e.PrevA)
	p.putFloats(e.CumA)
	p.putFloats(e.EwmaA)
	p.putLen(len(e.Series))
	for _, ss := range e.Series {
		p.putInt(ss.ID)
		putRing(p, ss.Actual)
		putRing(p, ss.Fcast)
		putModel(p, ss.Model)
		putMulti(p, ss.Multi)
	}
	p.putLen(len(e.Refs))
	for _, rs := range e.Refs {
		p.putInt(rs.ID)
		putRing(p, rs.Ring)
		putModel(p, rs.Model)
	}
	p.putInt(e.RefCovered)
	// The retained-window list once held STA state; it stays in the
	// format, always empty, so ADA checkpoints keep their bytes.
	p.putLen(0)
	return p
}

func decodeEngine(buf []byte) (*algo.EngineState, error) {
	r := &reader{buf: buf}
	e := &algo.EngineState{}
	e.Kind = r.getString()
	e.Instance = r.getInt()
	e.InSHHH = r.getBools()
	e.Ishh = r.getBools()
	e.Weight = r.getFloats()
	e.RawA = r.getFloats()
	e.PrevA = r.getFloats()
	e.CumA = r.getFloats()
	e.EwmaA = r.getFloats()
	n := r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		ss := algo.SeriesState{ID: r.getInt()}
		ss.Actual = getRing(r)
		ss.Fcast = getRing(r)
		ss.Model = getModel(r)
		ss.Multi = getMulti(r)
		e.Series = append(e.Series, ss)
	}
	n = r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		rs := algo.RefState{ID: r.getInt()}
		rs.Ring = getRing(r)
		rs.Model = getModel(r)
		e.Refs = append(e.Refs, rs)
	}
	e.RefCovered = r.getInt()
	if n := r.getLen(); n != 0 {
		r.fail("engine section holds a %d-unit retained window (STA state); only ADA state restores", n)
	}
	if err := r.done(tagEngine); err != nil {
		return nil, err
	}
	return e, nil
}

// --- Stream section ---

// encodeStream writes the Manager per-stream extras. Warmup-buffer
// timeunits are map-form; they are encoded through the hierarchy as
// sorted (ID, count) pairs, which keeps the bytes deterministic.
func encodeStream(s *StreamState, t *hierarchy.Tree) (*payload, error) {
	p := &payload{}
	p.putString(s.Name)
	w := &s.Windower
	p.putVarint(int64(w.Delta))
	p.putTime(w.Start)
	p.putBool(w.Began)
	p.putInt(w.MaxGap)
	p.putInt32s(w.CurIDs)
	p.putFloats(w.CurVals)
	p.putLen(len(s.WarmBuf))
	for _, u := range s.WarmBuf {
		ids := make([]int32, 0, len(u))
		for k := range u {
			n := t.Lookup(k)
			if n == nil {
				return nil, fmt.Errorf("checkpoint: warmup key %q missing from hierarchy", k)
			}
			ids = append(ids, int32(n.ID))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		p.putInt32s(ids)
		vals := make([]float64, len(ids))
		for i, id := range ids {
			vals[i] = u[t.Node(int(id)).Key]
		}
		p.putFloats(vals)
	}
	p.putTime(s.First)
	p.putBool(s.FirstSeen)
	p.putBool(s.Dirty)
	p.putInt(s.Units)
	p.putInt(s.Anoms)
	return p, nil
}

func decodeStream(buf []byte, t *hierarchy.Tree) (*StreamState, error) {
	r := &reader{buf: buf}
	s := &StreamState{}
	s.Name = r.getString()
	s.Windower.Delta = time.Duration(r.getVarint())
	s.Windower.Start = r.getTime()
	s.Windower.Began = r.getBool()
	s.Windower.MaxGap = r.getInt()
	s.Windower.CurIDs = r.getInt32s()
	s.Windower.CurVals = r.getFloats()
	n := r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		ids := r.getInt32s()
		vals := r.getFloats()
		if r.err != nil {
			break
		}
		if len(ids) != len(vals) {
			return nil, fmt.Errorf("%w: warmup unit has %d IDs, %d values", ErrBadCheckpoint, len(ids), len(vals))
		}
		u := make(algo.Timeunit, len(ids))
		for j, id := range ids {
			if id < 0 || int(id) >= t.Len() {
				return nil, fmt.Errorf("%w: warmup unit references node %d outside hierarchy of %d nodes",
					ErrBadCheckpoint, id, t.Len())
			}
			u[t.Node(int(id)).Key] += vals[j]
		}
		s.WarmBuf = append(s.WarmBuf, u)
	}
	s.First = r.getTime()
	s.FirstSeen = r.getBool()
	s.Dirty = r.getBool()
	s.Units = r.getInt()
	s.Anoms = r.getInt()
	if err := r.done(tagStream); err != nil {
		return nil, err
	}
	return s, nil
}
