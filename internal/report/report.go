// Package report implements Steps 5–6 of the Tiresias pipeline
// (Fig. 3(f)): anomalous events are written to a store that a
// technician or network administrator can query by time range and
// network location. The paper's deployment uses a text database with a
// JavaScript front-end issuing SQL; this reproduction provides an
// in-memory store with JSON persistence and an HTTP query API.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
)

// Store holds detected anomalies. The zero value is not usable;
// construct with NewStore. Store is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	anoms    []detect.Anomaly
	appended int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{}
}

// Add appends anomalies to the store.
func (s *Store) Add(as ...detect.Anomaly) {
	if len(as) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.anoms = append(s.anoms, as...)
	s.appended += len(as)
}

// Len returns the number of stored anomalies.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.anoms)
}

// Query selects anomalies matching the filter, sorted by (Instance,
// Key).
func (s *Store) Query(q Query) []detect.Anomaly {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []detect.Anomaly
	for _, a := range s.anoms {
		if q.matches(a) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instance != out[j].Instance {
			return out[i].Instance < out[j].Instance
		}
		return out[i].Key < out[j].Key
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Query filters anomalies. Zero-valued fields match everything.
type Query struct {
	// Under restricts results to the subtree rooted at this key
	// (inclusive).
	Under hierarchy.Key
	// FromInstance / ToInstance bound the time-instance range,
	// inclusive / exclusive; ToInstance <= 0 means unbounded.
	FromInstance, ToInstance int
	// MinDepth / MaxDepth bound the hierarchy depth; MaxDepth <= 0
	// means unbounded.
	MinDepth, MaxDepth int
	// Limit caps the number of returned results; <= 0 means all.
	Limit int
}

func (q Query) matches(a detect.Anomaly) bool {
	if q.Under != "" && !q.Under.IsAncestorOf(a.Key) {
		return false
	}
	if a.Instance < q.FromInstance {
		return false
	}
	if q.ToInstance > 0 && a.Instance >= q.ToInstance {
		return false
	}
	if a.Depth < q.MinDepth {
		return false
	}
	if q.MaxDepth > 0 && a.Depth > q.MaxDepth {
		return false
	}
	return true
}

// Save writes all anomalies as JSON to w.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.anoms); err != nil {
		return fmt.Errorf("report: save: %w", err)
	}
	return nil
}

// Load replaces the store contents with JSON previously produced by
// Save; the written total restarts at the loaded length.
func (s *Store) Load(r io.Reader) error {
	var as []detect.Anomaly
	if err := json.NewDecoder(r).Decode(&as); err != nil {
		return fmt.Errorf("report: load: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.anoms = as
	s.appended = len(as)
	return nil
}

// Handler returns an http.Handler exposing the store:
//
//	GET /anomalies?under=a/b&from=0&to=100&minDepth=1&maxDepth=4&limit=50
//	GET /stats
//
// The "under" parameter uses "/"-separated path components.
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /anomalies", func(w http.ResponseWriter, r *http.Request) {
		q, err := parseQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, s.Query(q))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		byDepth := make(map[int]int)
		var minInst, maxInst int
		for i, a := range s.anoms {
			byDepth[a.Depth]++
			if i == 0 || a.Instance < minInst {
				minInst = a.Instance
			}
			if a.Instance > maxInst {
				maxInst = a.Instance
			}
		}
		n := len(s.anoms)
		s.mu.RUnlock()
		writeJSON(w, map[string]any{
			"count":        n,
			"byDepth":      byDepth,
			"minInstance":  minInst,
			"maxInstance":  maxInst,
			"generatedAt":  time.Now().UTC().Format(time.RFC3339),
			"totalWritten": s.appendedCount(),
		})
	})
	return mux
}

func (s *Store) appendedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appended
}

func parseQuery(r *http.Request) (Query, error) {
	var q Query
	v := r.URL.Query()
	if u := v.Get("under"); u != "" {
		q.Under = hierarchy.KeyOf(splitSlash(u))
	}
	var err error
	if q.FromInstance, err = intParam(v.Get("from"), 0); err != nil {
		return q, fmt.Errorf("report: bad from: %w", err)
	}
	if q.ToInstance, err = intParam(v.Get("to"), 0); err != nil {
		return q, fmt.Errorf("report: bad to: %w", err)
	}
	if q.MinDepth, err = intParam(v.Get("minDepth"), 0); err != nil {
		return q, fmt.Errorf("report: bad minDepth: %w", err)
	}
	if q.MaxDepth, err = intParam(v.Get("maxDepth"), 0); err != nil {
		return q, fmt.Errorf("report: bad maxDepth: %w", err)
	}
	if q.Limit, err = intParam(v.Get("limit"), 0); err != nil {
		return q, fmt.Errorf("report: bad limit: %w", err)
	}
	return q, nil
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func splitSlash(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for an error status; the connection is best-effort.
		return
	}
}
