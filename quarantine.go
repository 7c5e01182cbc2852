package tiresias

// Failure containment for the Manager's ingestion paths: a panic
// escaping one stream's detector, windower, or sink is recovered at
// the feed boundary and quarantines that stream instead of killing
// the process. The other streams — and the whole serving surface
// above them — keep working; the quarantined stream refuses further
// records with ErrStreamQuarantined until Reopen retires it, and is
// excluded from checkpoints (its in-memory state is suspect: the
// panic interrupted an update mid-flight). The serving layer surfaces
// quarantine through Stats/StreamStatus and its health endpoint, so
// degraded mode is observable, not silent.

import (
	"errors"
	"fmt"
)

// ErrStreamQuarantined is returned by FeedBatch and Flush (and
// latched in Stats by the pipeline workers) when the target stream
// has been quarantined: a panic escaped its detector, windower, or
// sink during an earlier feed, so its in-memory state cannot be
// trusted. The stream's records are refused while the rest of the
// fleet keeps serving; call Reopen to retire the quarantined state
// and start the stream fresh. Test with errors.Is; the serving layer
// maps it to a stable wire error code (HTTP 503).
var ErrStreamQuarantined = errors.New("tiresias: stream is quarantined (a panic escaped its detector; Reopen to reset)")

// markQuarantined latches the quarantine with the recovered panic
// value. The shard lock must be held.
func (ms *managedStream) markQuarantined(p any) {
	ms.quarantined = true
	ms.quarReason = fmt.Sprintf("panic: %v", p)
}

// quarantineErr builds the error a feed of a quarantined stream
// returns.
func quarantineErr(streamName, reason string) error {
	return fmt.Errorf("tiresias: stream %q: %w (%s)", streamName, ErrStreamQuarantined, reason)
}

// containPanic is the deferred recovery barrier of the ingestion
// paths: call it deferred with the stream being fed; on a panic it
// quarantines the stream and rewrites the caller's error result. The
// shard lock must be held (the ingestion paths hold it across the
// whole feed, so the latch is atomic with the failed update).
func containPanic(streamName string, ms *managedStream, err *error) {
	if p := recover(); p != nil {
		ms.markQuarantined(p)
		*err = quarantineErr(streamName, ms.quarReason)
	}
}

// Quarantined snapshots the status of every quarantined stream,
// sorted by name — the fleet-health read behind the serving layer's
// GET /v2/healthz. An empty result means every stream is serving.
func (m *Manager) Quarantined() []StreamStatus {
	var out []StreamStatus
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for name, ms := range sh.streams {
			if ms.quarantined {
				out = append(out, ms.status(name))
			}
		}
		sh.mu.Unlock()
	}
	sortStatuses(out)
	return out
}
