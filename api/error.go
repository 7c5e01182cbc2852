package api

import (
	"errors"
	"fmt"
	"net/http"

	"tiresias"
)

// Stable machine-readable error codes of the /v2 API. Codes are part
// of the wire contract: clients dispatch on them (not on message
// text), and each maps to a tiresias sentinel error where one exists,
// so errors.Is works across the wire (see Error.Unwrap).
const (
	// CodeBadRequest marks a malformed body or query parameter.
	CodeBadRequest = "bad_request"
	// CodeInvalidRecord marks a record failing validation (empty
	// path, a path component empty or holding U+001F, missing time);
	// details carry the record index.
	CodeInvalidRecord = "invalid_record"
	// CodeBodyTooLarge marks an ingest body over the server limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeOutOfOrder maps tiresias.ErrOutOfOrder: a record older
	// than its stream's current timeunit.
	CodeOutOfOrder = "out_of_order"
	// CodeMaxGap maps tiresias.ErrMaxGap: a record too far in the
	// future for the configured gap bound.
	CodeMaxGap = "max_gap_exceeded"
	// CodeStreamDropped maps tiresias.ErrStreamDropped: the target
	// stream was retired by Drop.
	CodeStreamDropped = "stream_dropped"
	// CodeStreamQuarantined maps tiresias.ErrStreamQuarantined: the
	// target stream was quarantined after a contained panic and
	// refuses records until it is reopened. Served as 503 — the
	// condition is server-side and clears when an operator (or
	// automation) reopens the stream.
	CodeStreamQuarantined = "stream_quarantined"
	// CodeQueueFull maps tiresias.ErrQueueFull: the pipeline queue
	// rejected the batch; retry after the Retry-After delay.
	CodeQueueFull = "queue_full"
	// CodePipelineClosed maps tiresias.ErrPipelineClosed: the
	// server is shutting down.
	CodePipelineClosed = "pipeline_closed"
	// CodeUnknownStream marks a per-stream request for a stream the
	// server has never seen.
	CodeUnknownStream = "unknown_stream"
	// CodeNoCheckpoint maps tiresias.ErrNoCheckpoint.
	CodeNoCheckpoint = "no_checkpoint"
	// CodeBadCheckpoint maps tiresias.ErrBadCheckpoint: a checkpoint
	// that failed to decode (truncation, corruption, version skew).
	CodeBadCheckpoint = "bad_checkpoint"
	// CodeNotPipelined maps tiresias.ErrNotPipelined: an asynchronous
	// ingest path on a server running without a pipeline.
	CodeNotPipelined = "not_pipelined"
	// CodeCheckpointDisabled marks POST /v2/checkpoint on a server
	// started without a checkpoint directory.
	CodeCheckpointDisabled = "checkpoint_disabled"
	// CodeInternal marks an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is the structured wire error envelope: a stable code for
// machines, a message for humans, and optional details (e.g. the
// index of an invalid record, the number of records accepted before a
// mid-batch failure). It implements error, and Unwrap maps the code
// back to the tiresias sentinel it encodes, so client-side code can
// test errors.Is(err, tiresias.ErrQueueFull) against an error that
// crossed the wire.
type Error struct {
	// Code is the stable machine-readable error code.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Details carries optional structured context.
	Details map[string]any `json:"details,omitempty"`

	// Status is the HTTP status the error traveled with (set by the
	// client, not serialized).
	Status int `json:"-"`
	// RetryAfter is the server-requested retry delay in seconds
	// (from the Retry-After header; 0 when absent). Not serialized.
	RetryAfter int `json:"-"`
}

// ErrorResponse is the body shape of every non-2xx /v2 response.
type ErrorResponse struct {
	// Error is the envelope.
	Error *Error `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("api: %s (%d): %s", e.Code, e.Status, e.Message)
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// Unwrap maps the wire code back to its tiresias sentinel error (nil
// for codes without one), making errors.Is transparent across the
// wire.
func (e *Error) Unwrap() error { return sentinelFor(e.Code) }

// CodeFor maps an error to its stable wire code: tiresias sentinels
// map to their dedicated codes, anything else to fallback.
func CodeFor(err error, fallback string) string {
	switch {
	case errors.Is(err, tiresias.ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, tiresias.ErrPipelineClosed):
		return CodePipelineClosed
	case errors.Is(err, tiresias.ErrStreamQuarantined):
		return CodeStreamQuarantined
	case errors.Is(err, tiresias.ErrStreamDropped):
		return CodeStreamDropped
	case errors.Is(err, tiresias.ErrOutOfOrder):
		return CodeOutOfOrder
	case errors.Is(err, tiresias.ErrMaxGap):
		return CodeMaxGap
	case errors.Is(err, tiresias.ErrNoCheckpoint):
		return CodeNoCheckpoint
	case errors.Is(err, tiresias.ErrBadCheckpoint):
		return CodeBadCheckpoint
	case errors.Is(err, tiresias.ErrNotPipelined):
		return CodeNotPipelined
	default:
		return fallback
	}
}

// sentinelFor is CodeFor's inverse: the tiresias sentinel a wire code
// encodes, or nil.
func sentinelFor(code string) error {
	switch code {
	case CodeQueueFull:
		return tiresias.ErrQueueFull
	case CodePipelineClosed:
		return tiresias.ErrPipelineClosed
	case CodeStreamQuarantined:
		return tiresias.ErrStreamQuarantined
	case CodeStreamDropped:
		return tiresias.ErrStreamDropped
	case CodeOutOfOrder:
		return tiresias.ErrOutOfOrder
	case CodeMaxGap:
		return tiresias.ErrMaxGap
	case CodeNoCheckpoint:
		return tiresias.ErrNoCheckpoint
	case CodeBadCheckpoint:
		return tiresias.ErrBadCheckpoint
	case CodeNotPipelined:
		return tiresias.ErrNotPipelined
	default:
		return nil
	}
}

// StatusFor returns the canonical HTTP status for a wire code.
func StatusFor(code string) int {
	switch code {
	case CodeBadRequest, CodeInvalidRecord, CodeOutOfOrder, CodeMaxGap:
		return http.StatusBadRequest
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeStreamDropped:
		return http.StatusGone
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodePipelineClosed, CodeStreamQuarantined:
		return http.StatusServiceUnavailable
	case CodeUnknownStream, CodeNoCheckpoint:
		return http.StatusNotFound
	case CodeCheckpointDisabled, CodeNotPipelined:
		return http.StatusConflict
	case CodeBadCheckpoint:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}
