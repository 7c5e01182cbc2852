package tiresias

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// UnitEvent describes one processed timeunit, delivered to sinks after
// that unit's anomalies.
type UnitEvent struct {
	// Instance is the engine's time-instance counter for the unit.
	Instance int `json:"instance"`
	// Start is the wall-clock start of the unit.
	Start time.Time `json:"start"`
	// HeavyHitters is the SHHH set size after the unit.
	HeavyHitters int `json:"heavyHitters"`
	// Anomalies is the number of detections in the unit.
	Anomalies int `json:"anomalies"`
}

// Sink receives detection events as each timeunit is processed. For a
// unit with k anomalies the detector calls OnAnomaly k times (in
// detection order) and then OnUnit once. Calls happen synchronously on
// the processing goroutine: a slow sink slows the detector, so buffer
// or hand off in the implementation if that matters.
type Sink interface {
	// OnAnomaly delivers one detected anomaly.
	OnAnomaly(a Anomaly)
	// OnUnit marks the completion of one timeunit.
	OnUnit(ev UnitEvent)
}

// SinkFuncs adapts plain functions to the Sink interface; nil fields
// are no-ops.
type SinkFuncs struct {
	Anomaly func(a Anomaly)
	Unit    func(ev UnitEvent)
}

// OnAnomaly implements Sink.
func (s SinkFuncs) OnAnomaly(a Anomaly) {
	if s.Anomaly != nil {
		s.Anomaly(a)
	}
}

// OnUnit implements Sink.
func (s SinkFuncs) OnUnit(ev UnitEvent) {
	if s.Unit != nil {
		s.Unit(ev)
	}
}

// NewIndexSink returns a Sink recording every anomaly into a bounded
// AnomalyIndex under the given stream name — the single-detector
// counterpart of Manager's WithAnomalyIndex, for wiring a bare
// Tiresias (Run/ProcessUnit) into the query API.
func NewIndexSink(ix *AnomalyIndex, streamName string) Sink {
	return SinkFuncs{Anomaly: func(a Anomaly) { ix.Add(streamName, a) }}
}

// NewChannelSink returns a Sink sending every anomaly to ch. The send
// blocks, applying backpressure to the detector; size the channel (or
// drain it concurrently) accordingly.
func NewChannelSink(ch chan<- Anomaly) Sink {
	return SinkFuncs{Anomaly: func(a Anomaly) { ch <- a }}
}

// JSONSink streams anomalies as JSON, one object per line, to an
// io.Writer. Safe for concurrent use. The first write error is latched
// and reported by Err; later events are dropped. These JSON lines are
// the one anomaly file format (cmd/tiresias -store); ReadAnomalies
// reads them back.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

var _ Sink = (*JSONSink)(nil)

// NewJSONSink wraps w in a line-delimited JSON anomaly writer.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// OnAnomaly implements Sink.
func (s *JSONSink) OnAnomaly(a Anomaly) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(a)
}

// OnUnit implements Sink.
func (s *JSONSink) OnUnit(UnitEvent) {}

// Err returns the first write error encountered, if any.
func (s *JSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadAnomalies reads what a JSONSink writes: JSON lines, one Anomaly
// object per line, until EOF. Anything else — a JSON array included —
// fails with an error naming the format.
func ReadAnomalies(r io.Reader) ([]Anomaly, error) {
	dec := json.NewDecoder(r)
	var out []Anomaly
	for {
		var a Anomaly
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("tiresias: anomaly %d: want JSON lines, one Anomaly object per line: %w", len(out)+1, err)
		}
		out = append(out, a)
	}
}
