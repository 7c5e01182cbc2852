// Command tiresias-serve exposes anomaly detection over HTTP: the
// versioned /v2 wire API (package api) served by package httpserve —
// NDJSON/batch ingest, cursor-paginated anomaly queries, per-stream
// heavy-hitter introspection, live SSE anomaly subscriptions — next
// to the HTML dashboard of the paper's front-end (Fig. 3(f)) at "/".
// Every view reads the one bounded anomaly index; -store preloads it
// with the JSON lines written by cmd/tiresias -store (stream
// "history", sharing -index-cap with live detections).
//
// Usage:
//
//	tiresias-serve -store anomalies.jsonl -addr :8080 -window 96 -delta 15m
//	curl -X POST localhost:8080/v2/records -d '{"stream":"ccd","path":["vho1","io2"],"time":"2010-09-14T08:00:00Z"}'
//	curl 'localhost:8080/v2/anomalies?stream=ccd&limit=20'          # cursor-paginated
//	curl 'localhost:8080/v2/streams'                                # fleet status
//	curl 'localhost:8080/v2/streams/ccd'                            # + heavy hitters
//	curl 'localhost:8080/v2/config'                                 # introspection
//	curl 'localhost:8080/metrics'                                   # Prometheus exposition
//	curl -N 'localhost:8080/v2/anomalies/watch?stream=ccd'          # live SSE
//
// POST /v2/records accepts one JSON record, a JSON array, or — with
// Content-Type application/x-ndjson — one record per line. Prefer the
// typed Go client in package client over raw curl: it follows
// pagination cursors, reconnects watch streams, and retries queue-full
// rejections honoring Retry-After.
//
// With -queue N the server ingests through the Manager's pipelined
// mode: ingest enqueues each body as one job per shard to per-shard
// workers and returns immediately ("queued": true — follow
// /v2/anomalies or the watch stream for results). -backpressure
// selects the full-queue policy: "block" stalls the request,
// "drop-oldest" sheds the oldest queued job (counted in /v2/stats),
// "error" refuses the whole body with HTTP 429, a Retry-After header
// and a structured error body. Append
// ?wait=1 to drain the pipeline before the response returns.
//
// Detectors survive restarts through the checkpoint subsystem:
//
//	tiresias-serve -checkpoint-dir /var/lib/tiresias -checkpoint-every 5m
//	curl -X POST localhost:8080/v2/checkpoint   # on-demand snapshot
//	tiresias-serve -checkpoint-dir /var/lib/tiresias -restore
//
// A restored stream keeps its checkpointed θ, thresholds and gap
// bound unless -theta, -rt/-dt or -max-gap is given.
//
// Zero-downtime handoff chains the two: the outgoing process runs
// with -handoff, and on SIGTERM it drains the pipeline, writes a
// final checkpoint, and commits a HANDOFF-READY marker into the
// checkpoint directory; the successor starts with -restore, consumes
// the marker, and resumes every stream mid-window. See OPERATIONS.md
// for the full runbook.
//
// Observability: GET /metrics serves the Prometheus exposition,
// lifecycle and request logs are structured JSON on stderr
// (-log-level selects the floor), and -pprof-addr serves the
// net/http/pprof endpoints on a separate, private listener.
//
// This command is flag parsing and process lifecycle (signals,
// periodic checkpoints, graceful drain, handoff); the serving logic
// lives in package httpserve, reusable by any embedder.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tiresias"
	"tiresias/httpserve"
)

func main() {
	p, err := buildServer(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tiresias-serve:", err)
		os.Exit(1)
	}
	// Graceful stop: on SIGINT/SIGTERM stop accepting connections and
	// wait for in-flight requests, then drain the ingestion pipeline —
	// in that order, so handlers still enqueueing are not cut off with
	// a closed pipeline, and every record acknowledged with
	// "queued": true flows through detection before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// ListenAndServe returns ErrServerClosed the moment Shutdown closes
	// the listeners, while in-flight handlers may still be running inside
	// the grace window — so main must block on shutdownDone before
	// finish(), or the final handoff checkpoint could race handlers that
	// are still acknowledging ingests.
	shutdownDone := make(chan struct{})
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = p.srv.Shutdown(ctx)
		close(shutdownDone)
	}()
	if p.pprofAddr != "" {
		go func() {
			p.log.Info("pprof listening", "addr", p.pprofAddr)
			if err := http.ListenAndServe(p.pprofAddr, pprofMux()); err != nil {
				p.log.Error("pprof listener failed", "err", err.Error())
			}
		}()
	}
	p.log.Info("listening", "addr", p.srv.Addr, "anomalies_loaded", p.loaded, "handoff", p.handoff)
	err = p.srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		p.log.Error("listener failed", "err", err.Error())
		os.Exit(1)
	}
	<-shutdownDone
	if err := p.finish(); err != nil {
		p.log.Error("shutdown failed", "err", err.Error())
		os.Exit(1)
	}
}

// proc is one configured tiresias-serve process: the HTTP listener,
// the serving layer behind it, and the lifecycle the flags selected.
type proc struct {
	srv       *http.Server
	hs        *httpserve.Server
	log       *slog.Logger
	loaded    int    // anomalies loaded from -store
	handoff   bool   // checkpoint + ready marker after the final drain
	ckptDir   string // checkpoint directory ("" disables)
	pprofAddr string // private pprof listener ("" disables)
}

// finish completes the process lifecycle after the listener has
// stopped: drain the ingestion pipeline (flushing queued records
// through detection), and under -handoff write the final checkpoint
// and commit the HANDOFF-READY marker the successor looks for.
func (p *proc) finish() error {
	_ = p.hs.Close()
	if !p.handoff {
		p.log.Info("drained")
		return nil
	}
	streams, err := p.hs.Checkpoint()
	if err != nil {
		return fmt.Errorf("handoff checkpoint: %w", err)
	}
	if err := writeHandoffMarker(p.ckptDir, streams); err != nil {
		return fmt.Errorf("handoff marker: %w", err)
	}
	p.log.Info("handoff ready", "streams", streams, "dir", p.ckptDir)
	return nil
}

// handoffMarker is the ready-marker filename -handoff commits into
// the checkpoint directory after its final snapshot. A successor
// started with -restore consumes (removes) it, so the marker's
// presence always means "a finished predecessor's state is waiting".
const handoffMarker = "HANDOFF-READY"

// writeHandoffMarker atomically publishes the ready marker: the
// content lands in a temp file first and is renamed into place, so a
// supervisor polling for the marker can never observe a torn write.
func writeHandoffMarker(dir string, streams int) error {
	tmp := filepath.Join(dir, ".handoff-ready.tmp")
	body := fmt.Sprintf("streams %d\n", streams)
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, handoffMarker))
}

// pprofMux wires the standard net/http/pprof endpoints onto their
// own mux, served on -pprof-addr only — profiling never rides the
// public API listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", s)
	}
}

// buildServer parses flags into an httpserve.Config, loads the
// -store history, and returns the configured (unstarted) process. The
// caller runs the listener and, once it stops serving, proc.finish.
func buildServer(args []string) (*proc, error) {
	fs := flag.NewFlagSet("tiresias-serve", flag.ContinueOnError)
	var (
		storePath = fs.String("store", "", "anomaly JSON lines written by cmd/tiresias -store, preloaded into the index")
		addr      = fs.String("addr", ":8080", "listen address")
		delta     = fs.Duration("delta", 15*time.Minute, "live ingest: timeunit size Δ")
		window    = fs.Int("window", 672, "live ingest: sliding window length ℓ")
		theta     = fs.Float64("theta", 10, "live ingest: heavy-hitter threshold θ")
		rt        = fs.Float64("rt", 2.8, "live ingest: relative threshold RT")
		dt        = fs.Float64("dt", 8, "live ingest: absolute threshold DT")
		shards    = fs.Int("shards", 16, "live ingest: manager lock shards")
		maxGap    = fs.Int("max-gap", tiresias.DefaultMaxGap, "live ingest: max timeunits one record may gap-fill (<=0 disables)")
		queue     = fs.Int("queue", 0, "pipelined ingest: per-shard queue depth in jobs, one per shard per body (0 = synchronous)")
		policy    = fs.String("backpressure", "block", "pipelined ingest full-queue policy: block | drop-oldest | error")
		indexCap  = fs.Int("index-cap", 65536, "anomaly index capacity (entries), -store history included")
		watchBuf  = fs.Int("watch-buffer", 256, "per-subscriber watch buffer (entries); slower watchers are disconnected and resume by cursor")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for stream checkpoints (enables POST /v2/checkpoint)")
		restore   = fs.Bool("restore", false, "restore all streams from -checkpoint-dir at startup (consumes a handoff marker)")
		ckptEvery = fs.Duration("checkpoint-every", 0, "also checkpoint to -checkpoint-dir at this interval (0 disables)")
		handoff   = fs.Bool("handoff", false, "on shutdown: drain, checkpoint to -checkpoint-dir, and commit a "+handoffMarker+" marker for the successor")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this private address (empty disables)")
		logLevel  = fs.String("log-level", "info", "structured log floor: debug | info | warn | error")
		readTO    = fs.Duration("read-timeout", 2*time.Minute, "max duration reading one request, body included (0 disables)")
		writeTO   = fs.Duration("write-timeout", time.Minute, "per-request write deadline; SSE watch streams are exempt (0 disables)")
		idleTO    = fs.Duration("idle-timeout", 5*time.Minute, "max keep-alive idle time per connection (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (*restore || *ckptEvery > 0 || *handoff) && *ckptDir == "" {
		return nil, fmt.Errorf("-restore, -checkpoint-every, and -handoff require -checkpoint-dir")
	}
	bp, err := parsePolicy(*policy)
	if err != nil {
		return nil, err
	}
	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		return nil, err
	}
	if *shards < 1 {
		// httpserve.Config treats 0 as "use the default"; the flag
		// surface keeps the stricter contract.
		return nil, fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *watchBuf < 1 {
		return nil, fmt.Errorf("-watch-buffer must be >= 1, got %d", *watchBuf)
	}
	var history []tiresias.Anomaly
	if *storePath != "" {
		f, err := os.Open(*storePath)
		if err != nil {
			return nil, err
		}
		history, err = tiresias.ReadAnomalies(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-store %s: %w", *storePath, err)
		}
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	cfg := httpserve.Config{
		Delta:         *delta,
		WindowLen:     *window,
		Shards:        *shards,
		QueueDepth:    *queue,
		Backpressure:  bp,
		IndexCap:      *indexCap,
		WatchBuffer:   *watchBuf,
		History:       history,
		CheckpointDir: *ckptDir,
		Restore:       *restore,
		Logger:        logger,
	}
	// θ, the thresholds and the gap bound are set only from flags
	// given on the command line, so -restore keeps the checkpointed
	// values the others would override.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if given["theta"] {
		cfg.Theta = *theta
	}
	if given["rt"] || given["dt"] {
		cfg.Thresholds = tiresias.Thresholds{RT: *rt, DT: *dt}
	}
	if given["max-gap"] {
		cfg.MaxGap = *maxGap
		if *maxGap <= 0 {
			cfg.MaxGap = -1 // httpserve: negative disables the bound
		}
	}
	cfg.WriteTimeout = *writeTO
	if *writeTO <= 0 {
		cfg.WriteTimeout = -1 // httpserve: negative disables the deadline
	}
	hs, err := httpserve.New(cfg)
	if err != nil {
		return nil, err
	}
	plog := logger.With("component", "serve")
	if hs.ColdStarted {
		plog.Warn("no checkpoint yet, starting cold", "dir", *ckptDir)
	}
	if *restore {
		// Consume a predecessor's handoff marker: the state it
		// advertised is loaded, so the marker must not outlive it and
		// confuse the next rollout.
		marker := filepath.Join(*ckptDir, handoffMarker)
		if err := os.Remove(marker); err == nil {
			plog.Info("handoff marker consumed", "marker", marker)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("consume handoff marker: %w", err)
		}
	}
	// Write timeouts are per-request deadlines inside the handler chain
	// (httpserve.Config.WriteTimeout), NOT http.Server.WriteTimeout: a
	// server-level write timeout is measured from the start of the
	// connection's request and would cut every long-lived SSE watch
	// stream dead at the deadline, with no per-handler exemption.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hs.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
	}
	if *ckptEvery > 0 {
		// The ticker is tied to the server lifecycle: a Shutdown stops
		// it, so an embedding process (or a graceful restart) cannot
		// leave a goroutine checkpointing into a directory a successor
		// process may already be restoring from.
		ticker := time.NewTicker(*ckptEvery)
		done := make(chan struct{})
		srv.RegisterOnShutdown(func() {
			ticker.Stop()
			close(done)
		})
		go func() {
			for {
				select {
				case <-ticker.C:
					if _, err := hs.Checkpoint(); err != nil {
						plog.Error("periodic checkpoint failed", "err", err.Error())
					}
				case <-done:
					return
				}
			}
		}()
	}
	return &proc{
		srv:       srv,
		hs:        hs,
		log:       plog,
		loaded:    len(history),
		handoff:   *handoff,
		ckptDir:   *ckptDir,
		pprofAddr: *pprofAddr,
	}, nil
}

// parsePolicy maps the -backpressure flag to a BackpressurePolicy.
func parsePolicy(s string) (tiresias.BackpressurePolicy, error) {
	switch s {
	case "block":
		return tiresias.Block, nil
	case "drop-oldest":
		return tiresias.DropOldest, nil
	case "error":
		return tiresias.ErrorWhenFull, nil
	default:
		return 0, fmt.Errorf("unknown -backpressure %q (want block, drop-oldest, or error)", s)
	}
}
