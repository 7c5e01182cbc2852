package tiresias

import (
	"io"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
	"tiresias/internal/store"
	"tiresias/internal/stream"
)

// This file re-exports the parts of the internal packages that belong
// to the public surface, so embedders need to import only the root
// tiresias package. The aliases are true type identities: a
// tiresias.Record is a stream.Record, with all its methods.

// Record is a single operational data item s_i = (k_i, t_i): a
// hierarchical category path plus the recorded time.
type Record = stream.Record

// Source yields records in non-decreasing time order; Next returns
// io.EOF after the last record.
type Source = stream.Source

// Key is an encoded hierarchical category key.
type Key = hierarchy.Key

// KeyOf encodes a category path (root-most component first) as a Key.
func KeyOf(path []string) Key { return hierarchy.KeyOf(path) }

// Anomaly is one detected anomalous event (Definition 4).
type Anomaly = detect.Anomaly

// Thresholds are the Definition-4 sensitivity parameters RT and DT.
type Thresholds = detect.Thresholds

// DefaultThresholds returns the paper's operating point (RT=2.8, DT=8).
func DefaultThresholds() Thresholds { return detect.DefaultThresholds() }

// SplitRule selects how ADA's SPLIT apportions a parent's time series
// among its children (§V-B4).
type SplitRule = algo.SplitRule

// Split rules, re-exported from the engine.
const (
	Uniform         = algo.Uniform
	LastTimeUnit    = algo.LastTimeUnit
	LongTermHistory = algo.LongTermHistory
	EWMARule        = algo.EWMARule
)

// StageTimings decomposes a time instance's cost into the pipeline
// stages of Table III.
type StageTimings = algo.StageTimings

// AnomalyIndex is a bounded, concurrency-safe ring buffer of recent
// detections tagged with their stream of origin, queryable by stream,
// time range, and hierarchy subtree, with eviction accounted for in
// its stats. Attach one to a Manager with WithAnomalyIndex (or to a
// single detector with NewIndexSink).
type AnomalyIndex = store.Index

// AnomalyEntry is one indexed anomaly: the detection plus its stream
// name and insertion sequence number.
type AnomalyEntry = store.Entry

// AnomalyQuery filters AnomalyIndex entries; zero-valued fields match
// everything.
type AnomalyQuery = store.Query

// IndexStats describes an AnomalyIndex's occupancy and eviction
// accounting.
type IndexStats = store.Stats

// AnomalyPage is one forward page of an AnomalyIndex cursor walk
// (see AnomalyIndex.PageAfter): entries oldest-first, a resume
// cursor, and honest eviction accounting for cursors older than the
// retention horizon.
type AnomalyPage = store.Page

// NewAnomalyIndex returns an empty AnomalyIndex retaining at most
// capacity entries (capacity <= 0 selects store.DefaultCapacity).
func NewAnomalyIndex(capacity int) *AnomalyIndex { return store.New(capacity) }

// ErrOutOfOrder is returned (wrapped) by Run and FeedBatch
// when a record's timestamp precedes the current timeunit. Test with
// errors.Is; the serving layer maps it to a stable wire error code.
var ErrOutOfOrder = stream.ErrOutOfOrder

// ErrMaxGap is returned (wrapped) when a record's timestamp would
// force more gap-fill timeunits than the WithMaxGap bound allows.
// Test with errors.Is; the serving layer maps it to a stable wire
// error code.
var ErrMaxGap = stream.ErrMaxGap

// NewSliceSource copies records (sorting by time) into a Source.
func NewSliceSource(records []Record) Source { return stream.NewSliceSource(records) }

// NewJSONLSource reads one JSON-encoded Record per line, decoded as
// the server decodes request bodies. A line that fails to decode, or
// whose record has no path, a path label that is empty or holds
// U+001F, or no time, is an error naming the line. A "stream" key must
// be a string and is ignored; each returned Path is a fresh slice.
func NewJSONLSource(r io.Reader) Source { return stream.NewJSONLSource(r) }

// NewCSVishSource reads records in "RFC3339,comp1/comp2/..." form,
// the compact format emitted by cmd/tiresias-gen.
func NewCSVishSource(r io.Reader) Source { return stream.NewCSVishSource(r) }
