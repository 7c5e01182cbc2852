package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tiresias"
	"tiresias/api"
)

// The watch hub is the fan-out subscription sink behind
// GET /v2/anomalies/watch: the Manager's anomaly observer publishes
// every indexed entry to each subscriber's bounded buffer. A
// subscriber that falls a full buffer behind is disconnected with an
// accounted drop (never silently skipped ahead): because every entry
// carries its index cursor, the client resumes by cursor and replays
// the gap from the index, so slowness costs a reconnect, not data —
// up to the index's retention horizon, which the replay reports
// honestly via Missed.

// frameChunk is the size of the shared buffer the hub carves frames
// from. Frames are never rewritten, so a chunk is collected once every
// watcher has written its last frame; one refill serves about a
// hundred entries, whatever the number of watchers.
const frameChunk = 32 << 10

// liveEvent is one published entry as a subscriber receives it: the
// entry (for the watcher's filter and replay-horizon checks) and its
// complete SSE frame, shared read-only by every subscriber. frame is
// nil when the entry could not be encoded.
type liveEvent struct {
	entry tiresias.AnomalyEntry
	frame []byte
}

// subscriber is one attached watcher: a bounded event buffer plus its
// lag accounting.
type subscriber struct {
	ch chan liveEvent
	// lagged is set (under the hub lock, before ch is closed) when
	// the hub disconnected this subscriber for falling behind;
	// dropped counts the entries it missed. Readers may access both
	// only after ch is closed.
	lagged  bool
	dropped uint64
}

// hub fans indexed anomaly entries out to all subscribers, each entry
// encoded once under the index epoch.
type hub struct {
	epoch     uint64 // immutable: the index epoch every cursor carries
	mu        sync.Mutex
	subs      map[*subscriber]struct{} // guarded by mu
	chunk     []byte                   // guarded by mu: frame arena, append-only
	delivered uint64                   // guarded by mu
	dropped   uint64                   // guarded by mu
	lagged    uint64                   // guarded by mu
	closed    bool                     // guarded by mu
}

func newHub(epoch uint64) *hub {
	return &hub{epoch: epoch, subs: make(map[*subscriber]struct{})}
}

// publish delivers entries to every subscriber without blocking: it
// runs on the detecting goroutine under a Manager shard lock, so a
// full subscriber buffer disconnects that subscriber (drops counted)
// instead of stalling detection. Each entry is rendered once, and
// only while someone is watching.
//
//tiresias:hotpath
func (h *hub) publish(entries []tiresias.AnomalyEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range entries {
		if len(h.subs) == 0 {
			return
		}
		ev := liveEvent{entry: entries[i], frame: h.render(&entries[i])}
		for s := range h.subs {
			h.deliver(s, ev, len(entries)-i)
		}
	}
}

// render encodes e's SSE frame into the shared chunk and returns it,
// capped so no holder can append into the chunk; nil when e cannot be
// encoded. The hub lock must be held.
//
//tiresias:hotpath
func (h *hub) render(e *tiresias.AnomalyEntry) []byte {
	if need := frameBound(e); cap(h.chunk)-len(h.chunk) < need {
		//tiresias:ignore hotpath (chunk refill: one allocation per frameChunk bytes of frames)
		h.chunk = make([]byte, 0, max(frameChunk, need))
	}
	start := len(h.chunk)
	b, err := appendFrame(h.chunk, h.epoch, e)
	if err != nil {
		return nil
	}
	h.chunk = b
	return b[start:len(b):len(b)]
}

// deliver buffers ev for one subscriber, disconnecting it if its
// buffer is full; ev and the pending-1 entries published after it in
// the same batch count as dropped. The hub lock must be held.
//
//tiresias:hotpath
func (h *hub) deliver(s *subscriber, ev liveEvent, pending int) {
	select {
	case s.ch <- ev:
		h.delivered++
	default:
		n := uint64(pending)
		s.dropped += n
		h.dropped += n
		h.lagged++
		s.lagged = true
		close(s.ch)
		delete(h.subs, s)
	}
}

// subscribe attaches a new watcher with a buffer of buf events.
// Returns nil when the hub is already closed (server shutting down).
func (h *hub) subscribe(buf int) *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	s := &subscriber{ch: make(chan liveEvent, buf)}
	h.subs[s] = struct{}{}
	return s
}

// unsubscribe detaches s if still attached (a lagged disconnect
// already removed it).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// closeAll disconnects every subscriber (without marking them lagged)
// and refuses new ones; used at server shutdown.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// stats snapshots the fan-out accounting.
func (h *hub) stats() api.WatchStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return api.WatchStats{
		Subscribers: len(h.subs),
		Delivered:   h.delivered,
		Dropped:     h.dropped,
		Lagged:      h.lagged,
	}
}

// sseWriter writes SSE frames, flushing after each event and comment
// it renders itself; anomaly frames come pre-rendered (appendFrame)
// and are flushed per burst by the caller.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// event writes one id-less SSE frame: event name, JSON data.
func (s sseWriter) event(name string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, raw)
	s.f.Flush()
	return err
}

// comment writes an SSE comment line (keep-alive, diagnostics).
func (s sseWriter) comment(text string) {
	fmt.Fprintf(s.w, ": %s\n\n", text)
	s.f.Flush()
}

// watch serves GET /v2/anomalies/watch: an SSE stream of anomaly
// entries matching the optional stream/under filters, starting after
// the ?cursor= position. The handler first replays retained history
// from the index (reporting evicted entries as a `missed` comment),
// then streams live entries from the hub. Each event's SSE id is its
// cursor; on any disconnect — including a lagged disconnect for slow
// consumers — the client reconnects with the last id and loses
// nothing still retained.
func (s *Server) watch(w http.ResponseWriter, r *http.Request) {
	q, reset, we := s.anomalyQuery(r)
	if we != nil {
		writeErrorV2(w, we)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErrorV2(w, &wireError{
			status:  http.StatusInternalServerError,
			code:    api.CodeInternal,
			message: "response writer does not support streaming",
		})
		return
	}
	sub := s.hub.subscribe(s.cfg.WatchBuffer)
	if sub == nil {
		writeErrorV2(w, &wireError{
			status:  http.StatusServiceUnavailable,
			code:    api.CodePipelineClosed,
			message: "server is shutting down",
		})
		return
	}
	defer s.hub.unsubscribe(sub)

	// The watch stream is long-lived by design: lift the per-request
	// write deadline the containment middleware armed (slow consumers
	// are handled by the hub's lagged-disconnect path instead). Best
	// effort — test recorders don't support deadlines.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	sse := sseWriter{w: w, f: flusher}

	// Replay retained history after the cursor. Subscribing before
	// the replay snapshot means every live entry is either in the
	// snapshot (seq <= replay horizon, skipped below) or delivered
	// through the buffer — no gap between the two phases. The live
	// phase filters with the same Query.Matches as the replay, so
	// the two phases cannot disagree on what the subscription
	// covers.
	liveFilter := q // the replay-horizon seq check below subsumes Since
	q.Limit = s.cfg.PageLimit
	if reset {
		// The cursor came from a previous index epoch (server
		// restart); the walk restarts from the oldest retained
		// entry, and the client learns why instead of silently
		// re-receiving or missing entries.
		sse.comment("cursor_reset: cursor from a previous index epoch")
	}
	var frame []byte // the replay's frame buffer, reused per entry
	for {
		p := s.ix.PageAfter(q)
		if p.Missed > 0 {
			// The cursor predates the eviction horizon: say so
			// instead of silently starting later.
			sse.comment(fmt.Sprintf("missed=%d evicted before cursor", p.Missed))
		}
		for i := range p.Entries {
			var err error
			if frame, err = appendFrame(frame[:0], s.hub.epoch, &p.Entries[i]); err != nil {
				return
			}
			if _, err = w.Write(frame); err != nil {
				return
			}
		}
		flusher.Flush()
		q.Since = p.Next
		if !p.More {
			break
		}
	}
	replayed := q.Since
	last := replayed // cursor of the last event actually sent
	sse.comment("live")

	heartbeat := time.NewTicker(s.cfg.WatchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.ch:
			if !open {
				if sub.lagged {
					// Tell the client it fell behind and where to
					// resume; dropping silently would turn slowness
					// into data loss.
					_ = sse.event(api.EventLagged, api.LaggedEvent{
						Dropped: sub.dropped,
						Cursor:  s.cursor(last),
					})
				}
				return
			}
			// Write this event and every one already buffered behind
			// it, then flush once: a burst costs one flush, not one
			// per event. Only this loop receives, so a non-empty
			// buffer always yields an event.
			for {
				if ev.entry.Seq > replayed && liveFilter.Matches(ev.entry) {
					if ev.frame == nil {
						// The entry cannot be encoded: end the
						// stream, as a failed json.Marshal of it
						// always has.
						return
					}
					if _, err := w.Write(ev.frame); err != nil {
						return
					}
					last = ev.entry.Seq
				}
				if len(sub.ch) == 0 {
					break
				}
				ev = <-sub.ch
			}
			flusher.Flush()
		case <-heartbeat.C:
			sse.comment("hb")
		}
	}
}
