// Package client is the typed Go client of the tiresias /v2 wire API
// (package api): record ingest (single, batch, NDJSON), an anomaly
// iterator that transparently follows pagination cursors, live
// anomaly subscriptions over SSE with automatic reconnect and cursor
// resume (Watch), and per-stream / stats / config introspection.
// Requests retry transient rejections with exponential backoff,
// honoring the server's Retry-After header; every method takes a
// context and stops retrying the moment it is canceled.
//
// Errors returned by the server cross the wire as *api.Error values
// that unwrap to the tiresias sentinels, so embedding code written
// against the in-process API keeps working remotely:
//
//	_, err := c.IngestBatch(ctx, recs)
//	if errors.Is(err, tiresias.ErrQueueFull) { backOff() }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tiresias"
	"tiresias/api"
)

// Client talks to one tiresias server. Construct with New; the zero
// value is not usable. Safe for concurrent use.
type Client struct {
	base        *url.URL
	hc          *http.Client
	maxAttempts int
	backoff     time.Duration
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default
// http.DefaultClient). The client never sets timeouts on it: watch
// streams are long-lived, so use contexts — not client timeouts — to
// bound calls.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the retry budget: at most attempts tries per
// request (default 4), exponential backoff starting at base (default
// 250ms), doubling per attempt. A server Retry-After header overrides
// the computed backoff when longer. attempts <= 1 disables retries.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) { c.maxAttempts, c.backoff = attempts, base }
}

// New builds a Client for the server at baseURL (scheme + host +
// optional path prefix, e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{base: u, hc: http.DefaultClient, maxAttempts: 4, backoff: 250 * time.Millisecond}
	for _, o := range opts {
		o(c)
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = 1
	}
	return c, nil
}

// endpoint joins the base URL, a path, and query parameters.
func (c *Client) endpoint(path string, q url.Values) string {
	u := *c.base
	u.Path = strings.TrimRight(u.Path, "/") + path
	if len(q) > 0 {
		u.RawQuery = q.Encode()
	}
	return u.String()
}

// retryable reports whether a response status is worth retrying for
// this method: queue-full 429s always (the batch was rejected
// atomically, so a retry cannot double-apply), 5xx only for GETs
// (idempotent).
func retryable(method string, status int) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	return method == http.MethodGet && status >= 500
}

// do issues one request with retries, decoding a 2xx JSON body into
// out (if non-nil) and a non-2xx body into an *api.Error.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, contentType string, body []byte, out any) error {
	endpoint := c.endpoint(path, q)
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, lastErr, attempt); err != nil {
				return err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, endpoint, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transport errors are ambiguous for non-idempotent
			// requests (the server may have applied the write);
			// retry only GETs.
			if method == http.MethodGet {
				lastErr = err
				continue
			}
			return err
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			err := decodeInto(resp.Body, out)
			resp.Body.Close()
			return err
		}
		apiErr := decodeError(resp)
		resp.Body.Close()
		if retryable(method, resp.StatusCode) {
			lastErr = apiErr
			continue
		}
		return apiErr
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.maxAttempts, lastErr)
}

// sleep waits out the backoff before a retry: exponential from the
// configured base, or the server's Retry-After when longer.
func (c *Client) sleep(ctx context.Context, lastErr error, attempt int) error {
	d := c.backoff << (attempt - 1)
	var ae *api.Error
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		if ra := time.Duration(ae.RetryAfter) * time.Second; ra > d {
			d = ra
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeInto decodes a JSON body into out, or drains it when out is
// nil.
func decodeInto(r io.Reader, out any) error {
	if out == nil {
		_, err := io.Copy(io.Discard, r)
		return err
	}
	return json.NewDecoder(r).Decode(out)
}

// decodeError turns a non-2xx response into an *api.Error, keeping
// the HTTP status and Retry-After hint. A body that is not a
// structured envelope (a proxy error page) degrades to a synthesized
// envelope with the body as message.
func decodeError(resp *http.Response) *api.Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &api.Error{Status: resp.StatusCode}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw, &er); err == nil && er.Error != nil {
		*e = *er.Error
		e.Status = resp.StatusCode
	} else {
		e.Code = api.CodeInternal
		e.Message = strings.TrimSpace(string(raw))
		if e.Message == "" {
			e.Message = resp.Status
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			e.RetryAfter = secs
		}
	}
	return e
}

// Ingest sends one record. See IngestBatch.
func (c *Client) Ingest(ctx context.Context, rec api.Record) (*api.IngestResponse, error) {
	return c.IngestBatch(ctx, []api.Record{rec})
}

// IngestBatch sends records (in time order per stream) to
// POST /v2/records. On a pipelined server the response has Queued
// set and detection results arrive through /v2/anomalies and Watch
// instead of the return value. Queue-full rejections are retried
// with backoff, honoring Retry-After; a mid-batch validation or
// ordering error is returned as an *api.Error whose Details carry
// how many records were accepted.
func (c *Client) IngestBatch(ctx context.Context, recs []api.Record) (*api.IngestResponse, error) {
	body, err := json.Marshal(recs)
	if err != nil {
		return nil, err
	}
	out := &api.IngestResponse{}
	if err := c.do(ctx, http.MethodPost, "/v2/records", nil, "application/json", body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// IngestNDJSON streams an NDJSON body (one JSON record per line, as
// defined by api.Record) to POST /v2/records. The body is buffered
// in memory so queue-full rejections can be retried.
func (c *Client) IngestNDJSON(ctx context.Context, ndjson io.Reader) (*api.IngestResponse, error) {
	body, err := io.ReadAll(ndjson)
	if err != nil {
		return nil, err
	}
	out := &api.IngestResponse{}
	if err := c.do(ctx, http.MethodPost, "/v2/records", nil, "application/x-ndjson", body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Streams lists every live stream's status.
func (c *Client) Streams(ctx context.Context) ([]tiresias.StreamStatus, error) {
	var out []tiresias.StreamStatus
	if err := c.do(ctx, http.MethodGet, "/v2/streams", nil, "", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream fetches one stream's status and current heavy hitters. An
// unknown stream returns an *api.Error with code
// api.CodeUnknownStream.
func (c *Client) Stream(ctx context.Context, name string) (*api.StreamDetail, error) {
	out := &api.StreamDetail{}
	if err := c.do(ctx, http.MethodGet, "/v2/streams/"+url.PathEscape(name), nil, "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches server throughput, queue, index, and watch
// statistics.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	out := &api.StatsResponse{}
	if err := c.do(ctx, http.MethodGet, "/v2/stats", nil, "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health fetches the server's health report. The endpoint answers
// 200 even when degraded — inspect Status and the impairment lists
// (quarantined streams, latched worker errors) rather than relying
// on an error return.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	out := &api.HealthResponse{}
	if err := c.do(ctx, http.MethodGet, "/v2/healthz", nil, "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ServerConfig fetches the server's effective configuration.
func (c *Client) ServerConfig(ctx context.Context) (*api.ServerConfig, error) {
	out := &api.ServerConfig{}
	if err := c.do(ctx, http.MethodGet, "/v2/config", nil, "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Checkpoint asks the server to snapshot every live stream.
func (c *Client) Checkpoint(ctx context.Context) (*api.CheckpointResponse, error) {
	out := &api.CheckpointResponse{}
	if err := c.do(ctx, http.MethodPost, "/v2/checkpoint", nil, "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AnomalyQuery filters server-side anomaly reads (Page, Anomalies,
// Watch). Zero-valued fields match everything.
type AnomalyQuery struct {
	// Stream restricts to one stream name.
	Stream string
	// Under restricts to the hierarchy subtree rooted at this path
	// (root-most component first).
	Under []string
	// From/To bound the anomaly timestamp (From inclusive, To
	// exclusive). Ignored by Watch.
	From, To time.Time
	// Cursor resumes after a previous page or watch position ("" =
	// from the oldest retained entry).
	Cursor string
	// PageSize is the per-request page size (server-capped; <= 0
	// selects the server default).
	PageSize int
}

// values renders the query as URL parameters.
func (q AnomalyQuery) values(withTimes bool) url.Values {
	v := url.Values{}
	if q.Stream != "" {
		v.Set("stream", q.Stream)
	}
	if len(q.Under) > 0 {
		v.Set("under", strings.Join(q.Under, "/"))
	}
	if withTimes {
		if !q.From.IsZero() {
			v.Set("from", q.From.Format(time.RFC3339))
		}
		if !q.To.IsZero() {
			v.Set("to", q.To.Format(time.RFC3339))
		}
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	if q.PageSize > 0 {
		v.Set("limit", strconv.Itoa(q.PageSize))
	}
	return v
}

// Page fetches one page of GET /v2/anomalies. Most callers want the
// Anomalies iterator, which follows cursors transparently.
func (c *Client) Page(ctx context.Context, q AnomalyQuery) (*api.AnomaliesPage, error) {
	out := &api.AnomaliesPage{}
	if err := c.do(ctx, http.MethodGet, "/v2/anomalies", q.values(true), "", nil, out); err != nil {
		return nil, err
	}
	return out, nil
}
