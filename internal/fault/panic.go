package fault

import (
	"fmt"
	"sync"
)

// Panic is a countdown panic trigger: the Nth Poke call panics with a
// recognizable PanicValue. Wire Poke into a Sink's OnAnomaly, a
// detector wrapper, or any other callback that runs inside the
// component under test, to prove the surrounding layer contains the
// panic (quarantines the stream, answers the request with a
// structured 500) instead of letting it kill the process.
//
// Safe for concurrent use; exactly one Poke call fires.
type Panic struct {
	mu    sync.Mutex
	after int64 // Poke calls remaining before firing, guarded by mu
	n     int64 // Poke calls observed, guarded by mu
	fired bool  // guarded by mu
	msg   string
}

// PanicValue is the value a fired Panic panics with, so recover sites
// under test can be checked for preserving the panic payload.
type PanicValue struct {
	// Msg is the configured trigger message.
	Msg string
	// Poke is the 1-based Poke call number that fired.
	Poke int64
}

// String implements fmt.Stringer (panic output and quarantine reasons
// render the value with %v).
func (v PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic %q at poke %d", v.Msg, v.Poke)
}

// NewPanic builds a trigger that panics on the nth Poke call (n <= 1
// fires on the first).
//
//tiresias:ignore deadexport (test seam: the root, httpserve and client chaos tests share it)
func NewPanic(n int64, msg string) *Panic {
	if n < 1 {
		n = 1
	}
	return &Panic{after: n, msg: msg}
}

// Poke counts one call and panics if the countdown expired. After
// firing once it never fires again, so a recovered component can be
// poked further to prove it stays contained.
func (p *Panic) Poke() {
	p.mu.Lock()
	p.n++
	fire := !p.fired && p.n >= p.after
	if fire {
		p.fired = true
	}
	n := p.n
	p.mu.Unlock()
	if fire {
		panic(PanicValue{Msg: p.msg, Poke: n})
	}
}

// Fired reports whether the trigger has panicked.
func (p *Panic) Fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Pokes returns the number of Poke calls observed.
func (p *Panic) Pokes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}
