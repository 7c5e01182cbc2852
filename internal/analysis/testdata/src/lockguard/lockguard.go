// Package lockguard is a tiresias-vet fixture exercising the
// lockguard analyzer: unguarded accesses fire, proper critical
// sections and documented lock-held preconditions stay silent, and
// the classic lock-then-unlock-then-touch bug is rejected.
package lockguard

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type gauge struct {
	mu sync.RWMutex
	// v is the current reading, guarded by mu.
	v float64
}

func good(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func goodDefer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func goodRead(g *gauge) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}

func bad(c *counter) int {
	return c.n // want `c\.n is guarded by c\.mu`
}

func badAfterUnlock(c *counter) int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want `c\.n is guarded by c\.mu`
}

// held bumps the counter. The caller holds mu.
func held(c *counter) {
	c.n++
}

// litLeak locks inside a goroutine literal: the literal's lock, and
// its deferred unlock, end with the literal, so the access after it is
// unguarded.
func litLeak(c *counter) int {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
	return c.n // want `c\.n is guarded by c\.mu`
}
