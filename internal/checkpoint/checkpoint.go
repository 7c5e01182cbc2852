// Package checkpoint implements the durable snapshot format of a
// Tiresias detector: a compact, self-describing binary codec that
// serializes the full detector state — configuration, category
// hierarchy, engine state (series rings, forecasting models,
// split-rule statistics, reference series), detector clock, and the
// optional windowing state (warm-up buffer, partial current unit) a
// detector needs to resume mid-unit. Its Config type also builds the
// engine: Seasonality and Engine are the one construction of an
// algo.Config from a detector's settings.
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
// END.) and readers skip unknown tags, so new sections can be added
// without a version bump. CFG., TRE. and DET. must precede ENG. and
// TRE. must precede STR.: they bound what the later sections decode.
// Integers are varints, single floats little-endian IEEE-754 bits.
// Float slices are run-coded (since version 2): a uvarint length, then
// runs of
//
//	uvarint zeros | uvarint k | k × float64 bits
//
// covering the length, where a zero is a value whose bits are all zero
// (-0.0 and NaNs are literals). Engine state is mostly zeros — §V-B5
// reference rings of quiet nodes, per-node arrays of nodes outside the
// heavy-hitter set — so a checkpoint scales with live state, and float
// state still round-trips bit-exactly, which is what makes a restored
// detector emit anomalies identical to one that never restarted.
// Write emits only Version; Read also upgrades versions 1 and 2 (see
// Version). Every decoding failure — truncation, a flipped byte
// (caught by the per-section CRC32), an unknown version, a float slice
// longer than the structure it mirrors — is reported as an error
// wrapping ErrBadCheckpoint.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/stream"
)

// magic identifies a Tiresias checkpoint stream.
const magic = "TIRESCKP"

// Version is the checkpoint format version Write emits. Read also
// accepts versions 1 and 2, whose extra fields no step reads: CFG.'s
// engine selector, ENG.'s kind, its copy of DET.'s instance, a model
// per reference series and an empty retained-window list, and each
// held forecast as a one-sample ring (version 1 also wrote float
// slices densely). Their branch of the one decoder checks each such
// field as their readers did and drops it, so an old file re-encodes
// to what a fresh run writes. Any other version is ErrBadCheckpoint.
const Version = 3

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

// Config is a detector's configuration: the options a detector runs
// with are this struct (the root package embeds it), and the CFG.
// section is its encoding, so a restored detector resumes with exactly
// the settings it was checkpointed with. Values are post-normalization
// (after any WithIncrement rescaling), so restore never re-applies
// derivations.
type Config struct {
	// Delta is the timeunit size Δ; Increment the configured ς.
	Delta, Increment time.Duration
	// WindowLen is ℓ, the sliding-window length in timeunits.
	WindowLen int
	// Theta is the heavy-hitter threshold θ.
	Theta float64
	// Thresholds are the Definition-4 sensitivity thresholds RT, DT.
	Thresholds detect.Thresholds
	// Rule is the ADA split rule; RuleAlpha the EWMA-rule rate.
	Rule      algo.SplitRule
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

// StreamState is a detector's windowing state — the live windowing
// position (including the partial current unit) and the warmup buffer
// of a not-yet-warm detector — plus, in a Manager stream file, the
// stream name and the bookkeeping counters surfaced by
// Manager.Streams.
type StreamState struct {
	// Name is the stream name given to FeedBatch.
	Name string
	// Windower is the captured windowing position.
	Windower stream.WindowerState
	// WarmBuf holds the buffered warm-up units as (ID, count) pairs in
	// ascending ID order; fewer than the window, and empty once warm.
	WarmBuf []*algo.DenseUnit
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
	// WarmLen and Instance are the detector clock: units the warm-up
	// window held and units processed since.
	WarmLen, Instance int
	// Periods and Xi are the seasonality actually in use.
	Periods []int
	Xi      float64
	// Engine is the exported engine state; nil when not warm.
	Engine *algo.EngineState
	// Stream is the windowing section. A Manager stream file always
	// carries it; a detector snapshot only when it holds a warm-up
	// buffer or a partial unit (nil otherwise: the window position
	// follows from the clock).
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
	if version < 1 || version > Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads versions 1 to %d",
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
			err = decodeConfig(buf, version, &snap.Config)
		case tagTree:
			snap.Tree, err = decodeTree(buf)
		case tagDetector:
			err = decodeDetector(buf, snap)
		case tagEngine:
			if !seen[tagConfig] || !seen[tagTree] || !seen[tagDetector] {
				return nil, fmt.Errorf("%w: engine section before configuration, hierarchy or detector", ErrBadCheckpoint)
			}
			snap.Engine, err = decodeEngine(buf, version, snap)
		case tagStream:
			if !seen[tagTree] {
				return nil, fmt.Errorf("%w: stream section before hierarchy", ErrBadCheckpoint)
			}
			snap.Stream, err = decodeStream(buf, version >= 2, snap.Tree)
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
	// A detector warms up the moment its buffer reaches the window, and
	// a warm one buffers nothing: no other warm-up buffer was written.
	if ss := snap.Stream; ss != nil && len(ss.WarmBuf) > 0 && (snap.Warm || len(ss.WarmBuf) >= snap.Config.WindowLen) {
		return nil, fmt.Errorf("%w: %d buffered warm-up units (warm %v, window %d)", ErrBadCheckpoint, len(ss.WarmBuf), snap.Warm, snap.Config.WindowLen)
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
	p.putF64(c.Thresholds.RT)
	p.putF64(c.Thresholds.DT)
	p.putInt(int(c.Rule))
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

func decodeConfig(buf []byte, version uint64, c *Config) error {
	r := &reader{buf: buf}
	c.Delta = time.Duration(r.getVarint())
	c.Increment = time.Duration(r.getVarint())
	c.WindowLen = r.getInt()
	c.Theta = r.getF64()
	c.Thresholds.RT = r.getF64()
	c.Thresholds.DT = r.getF64()
	if version < 3 {
		// The engine selector, from when STA had checkpoints.
		if sel := r.getInt(); sel != 1 {
			r.fail("engine selector %d (only ADA, 1, restores)", sel)
		}
	}
	c.Rule = algo.SplitRule(r.getInt())
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
	p.putInt(t.Len())
	for id := 1; id < t.Len(); id++ {
		p.putInt(t.Parent(id))
		p.putString(t.Label(id))
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
	for id := 1; id < n; id++ {
		parent := r.getInt()
		label := r.getString()
		if r.err != nil {
			return nil, r.done(tagTree)
		}
		if parent < 0 || parent >= id {
			return nil, fmt.Errorf("%w: node %d has parent %d (IDs are insertion-ordered)", ErrBadCheckpoint, id, parent)
		}
		if c, added := t.AddChild(parent, label); c < 0 {
			return nil, fmt.Errorf("%w: node %d has label %q", ErrBadCheckpoint, id, label)
		} else if !added {
			return nil, fmt.Errorf("%w: duplicate node %q", ErrBadCheckpoint, t.Key(c))
		}
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

func getModel(r *reader, b engineBounds) forecast.State {
	return forecast.State{Kind: r.getString(), Ints: r.getInts(), Floats: r.getFloats(b.model)}
}

func putRing(p *payload, rs algo.RingState) {
	p.putInt(rs.Cap)
	p.putFloats(rs.Values)
}

func getRing(r *reader, b engineBounds) algo.RingState {
	return algo.RingState{Cap: r.getInt(), Values: r.getFloats(b.window)}
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

func getMulti(r *reader, b engineBounds) *series.MultiScaleState {
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
		ms.Scales = append(ms.Scales, r.getFloats(b.window))
	}
	return ms
}

// encodeEngine writes the engine state but its instance, which is the
// detector section's.
func encodeEngine(e *algo.EngineState) *payload {
	p := &payload{}
	flags, floats := e.Columns()
	for _, col := range flags {
		p.putBools(*col)
	}
	for _, col := range floats {
		p.putFloats(*col)
	}
	p.putLen(len(e.Series))
	for _, ss := range e.Series {
		p.putInt(ss.ID)
		putRing(p, ss.Actual)
		p.putF64(ss.Forecast)
		putModel(p, ss.Model)
		putMulti(p, ss.Multi)
	}
	p.putLen(len(e.Refs))
	for _, rs := range e.Refs {
		p.putInt(rs.ID)
		putRing(p, rs.Ring)
	}
	p.putInt(e.RefCovered)
	return p
}

// engineBounds caps each float slice of the engine section at the
// length of the structure it mirrors in a restorable engine. They are
// what bounds the run coding's allocations.
type engineBounds struct {
	// nodes bounds the per-node arrays: the hierarchy's size.
	nodes int
	// window bounds rings (capacity ℓ) and multi-scale scales (at most
	// ℓ+λ samples): ℓ+λ.
	window int
	// model bounds a forecasting model's floats: 6 plus the seasonal
	// periods in use (Holt-Winters keeps 5+p, dual seasonality 6+p1+p2,
	// EWMA 2).
	model int
}

// engineBoundsOf derives the engine bounds from the configuration,
// hierarchy and detector sections.
func engineBoundsOf(s *Snapshot) engineBounds {
	bound := func(terms ...int) int {
		sum := 0
		for _, v := range terms {
			sum += min(max(v, 0), maxSliceLen)
		}
		return min(sum, maxSliceLen)
	}
	return engineBounds{
		nodes:  s.Tree.Len(),
		window: bound(s.Config.WindowLen, s.Config.Lambda),
		model:  bound(append([]int{6}, s.Periods...)...),
	}
}

// decodeEngine reads the engine section against the sections before
// it; see Version for what the old-form branches check and drop.
func decodeEngine(buf []byte, version uint64, s *Snapshot) (*algo.EngineState, error) {
	r := &reader{buf: buf, runs: version >= 2}
	b := engineBoundsOf(s)
	e := &algo.EngineState{Instance: s.Instance}
	old := version < 3
	if old {
		if kind := r.getString(); kind != "ADA" {
			r.fail("engine kind %q; only ADA state restores", kind)
		}
		if inst := r.getInt(); inst != s.Instance {
			r.fail("engine instance %d, detector instance %d", inst, s.Instance)
		}
	}
	flags, floats := e.Columns()
	for _, col := range flags {
		*col = r.getBools()
	}
	for _, col := range floats {
		*col = r.getFloats(b.nodes)
	}
	n := r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		ss := algo.SeriesState{ID: r.getInt()}
		ss.Actual = getRing(r, b)
		if !old {
			ss.Forecast = r.getF64()
		} else if fc := getRing(r, b).Values; len(fc) > 0 {
			// An old forecast ring: its newest sample is the held
			// forecast (zero when empty), its capacity is not read.
			ss.Forecast = fc[len(fc)-1]
		}
		ss.Model = getModel(r, b)
		ss.Multi = getMulti(r, b)
		e.Series = append(e.Series, ss)
	}
	n = r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		rs := algo.RefState{ID: r.getInt()}
		rs.Ring = getRing(r, b)
		if old {
			// A model of the reference series, which no step reads.
			if _, err := forecast.Restore(getModel(r, b)); err != nil {
				r.fail("reference %d: %v", rs.ID, err)
			}
		}
		e.Refs = append(e.Refs, rs)
	}
	e.RefCovered = r.getInt()
	if old {
		if n := r.getLen(); n != 0 {
			r.fail("engine section holds a %d-unit retained window (STA state); only ADA state restores", n)
		}
	}
	if err := r.done(tagEngine); err != nil {
		return nil, err
	}
	return e, nil
}

// --- Stream section ---

// encodeStream writes the windowing section. Each warm-up unit is
// written as its (ID, count) pairs, which the detector keeps in
// ascending ID order, so the bytes are deterministic.
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
		if id := u.MaxID(); id >= t.Len() {
			return nil, fmt.Errorf("checkpoint: warmup unit references node %d outside hierarchy of %d nodes", id, t.Len())
		}
		p.putInt32s(u.IDs())
		p.putFloats(u.Values())
	}
	p.putTime(s.First)
	p.putBool(s.FirstSeen)
	p.putBool(s.Dirty)
	p.putInt(s.Units)
	p.putInt(s.Anoms)
	return p, nil
}

// decodeStream bounds the partial unit and each warm-up unit by the
// hierarchy: they hold at most one value per node.
func decodeStream(buf []byte, runs bool, t *hierarchy.Tree) (*StreamState, error) {
	r := &reader{buf: buf, runs: runs}
	s := &StreamState{}
	s.Name = r.getString()
	s.Windower.Delta = time.Duration(r.getVarint())
	s.Windower.Start = r.getTime()
	s.Windower.Began = r.getBool()
	s.Windower.MaxGap = r.getInt()
	s.Windower.CurIDs = r.getInt32s()
	s.Windower.CurVals = r.getFloats(t.Len())
	n := r.getLen()
	for i := 0; i < n && r.err == nil; i++ {
		ids := r.getInt32s()
		vals := r.getFloats(t.Len())
		if r.err != nil {
			break
		}
		if len(ids) != len(vals) {
			return nil, fmt.Errorf("%w: warmup unit has %d IDs, %d values", ErrBadCheckpoint, len(ids), len(vals))
		}
		for j, id := range ids {
			if id < 0 || int(id) >= t.Len() {
				return nil, fmt.Errorf("%w: warmup unit references node %d outside hierarchy of %d nodes",
					ErrBadCheckpoint, id, t.Len())
			}
			if j > 0 && id <= ids[j-1] {
				return nil, fmt.Errorf("%w: warmup unit IDs not strictly ascending (%d after %d)", ErrBadCheckpoint, id, ids[j-1])
			}
		}
		s.WarmBuf = append(s.WarmBuf, algo.PairsOf(ids, vals))
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
