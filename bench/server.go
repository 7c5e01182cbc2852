package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tiresias/client"
)

// The server under test is the real tiresias-serve binary in a child
// process. In one process the generator's pre-encoded bodies share the
// server's heap, the collector almost never runs, and its cost
// disappears from every number.

// cleanups are run once on every way out of the process — normal
// return, failure, panic, SIGINT — so no child server or temp
// directory outlives the benchmark.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	cleanups.fns = append(cleanups.fns, fn)
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module tiresias\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the tiresias module (no go.mod found); run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/tiresias-serve into the checkout's build
// directory and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "tiresias-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tiresias-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build tiresias-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// newRunDir creates a scratch directory under bench/out for one
// server's checkpoints and log, removed at exit.
func newRunDir(root string) (string, error) {
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is one running tiresias-serve child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port of the API listener
	pprof  string // http://host:port of the pprof listener
	dir    string // checkpoint directory
	log    *os.File
	waited chan struct{}
}

// startServer boots the binary with the workload's flags — the flags
// are the only configuration surface used — and waits until
// /v2/healthz answers ok.
func startServer(ctx context.Context, bin string, w *workload, dir string, restore bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	pprofAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{
		"-addr", addr,
		"-delta", delta.String(),
		"-window", strconv.Itoa(w.window),
		"-shards", strconv.Itoa(w.shards),
		"-queue", strconv.Itoa(w.queue),
		"-backpressure", "block",
		"-index-cap", "1000000",
		"-checkpoint-dir", ckpt,
		"-pprof-addr", pprofAddr,
	}
	if restore {
		args = append(args, "-restore")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = childAttr()
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		pprof:  "http://" + pprofAddr,
		dir:    ckpt,
		log:    logFile,
		waited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child is not news
		close(s.waited)
	}()
	onExit(s.kill)
	if err := s.waitHealthy(ctx); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /v2/healthz until the server reports ok.
func (s *server) waitHealthy(ctx context.Context) error {
	c, err := client.New(s.base, client.WithRetry(1, 0))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-s.waited:
			return fmt.Errorf("server exited during start-up; see %s", s.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 20s: %v", err)
		}
	}
}

// stop shuts the server down gracefully (SIGTERM drains the
// pipeline) and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(30 * time.Second):
	}
	s.kill()
}

// kill ends the child at once and reaps it. Safe to call repeatedly.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
	s.log.Close()
}

// runtimeCounters are the server's allocation counters, from the
// runtime.MemStats trailer of its heap profile.
type runtimeCounters struct {
	mallocs, totalAlloc, numGC, heapAlloc uint64
}

// counters reads the server's allocation counters through
// -pprof-addr; gc forces a collection first.
func (s *server) counters(ctx context.Context, gc bool) (runtimeCounters, error) {
	url := s.pprof + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return runtimeCounters{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return runtimeCounters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return runtimeCounters{}, fmt.Errorf("pprof heap: %s", resp.Status)
	}
	return parseMemStats(resp.Body)
}

// parseMemStats extracts the "# Name = value" counters from a
// debug=1 heap profile.
func parseMemStats(r io.Reader) (runtimeCounters, error) {
	var c runtimeCounters
	want := map[string]*uint64{
		"Mallocs":    &c.mallocs,
		"TotalAlloc": &c.totalAlloc,
		"NumGC":      &c.numGC,
		"HeapAlloc":  &c.heapAlloc,
	}
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if dst := want[name]; ok && dst != nil {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("pprof heap: %s: %w", name, err)
			}
			*dst = n
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if found != len(want) {
		return c, fmt.Errorf("pprof heap: found %d of %d MemStats counters", found, len(want))
	}
	return c, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
