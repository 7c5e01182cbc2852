// Package goroline is a tiresias-vet fixture for the
// goroutine-lifecycle analyzer: leaked goroutines, loop timers, and
// sends under locks fire; every sanctioned lifecycle stays silent.
package goroline

import (
	"context"
	"sync"
	"time"
)

// spin has no shutdown evidence of any kind.
func spin() {
	for i := 0; ; i++ {
		_ = i
	}
}

// consume drains a work queue; closing the channel ends it.
func consume(ch chan int) {
	for v := range ch {
		_ = v
	}
}

// SpawnBad pins the leak diagnostics: a named function with no
// shutdown path, and a closure that captures ctx but never consults
// it.
func SpawnBad(ctx context.Context) {
	go spin()   // want `goroutine has no visible shutdown path`
	go func() { // want `goroutine has no visible shutdown path`
		_ = ctx
	}()
}

// SpawnCtx selects on ctx.Done: a visible shutdown path.
func SpawnCtx(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

// SpawnWorker delegates to a function whose range loop ends when the
// channel closes.
func SpawnWorker(ch chan int) {
	go consume(ch)
}

// SpawnWG registers with a WaitGroup before spawning.
func SpawnWG() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// SpawnIgnored pins the suppression path.
func SpawnIgnored() {
	go spin() //tiresias:ignore goroline (fixture: pinning the suppression path)
}

// poll pins the loop-timer diagnostics.
func poll(done chan struct{}) {
	for {
		select {
		case <-time.After(time.Second): // want `time\.After inside a loop`
			continue
		case <-done:
			return
		}
	}
}

// tick pins time.Tick inside a range loop, and the hoisted form
// staying silent.
func tick(items []int, done chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for range items {
		select {
		case <-time.Tick(time.Minute): // want `time\.Tick inside a loop`
		case <-t.C: // no finding: hoisted ticker
		case <-done:
			return
		}
	}
}

// box owns an unbuffered handoff channel and the mutex it must not
// block under.
type box struct {
	mu  sync.Mutex
	ch  chan int
	buf chan int
}

// newBox wires the channels: ch unbuffered, buf buffered.
func newBox() *box {
	b := &box{}
	b.ch = make(chan int)
	b.buf = make(chan int, 8)
	return b
}

// handoff pins the send-under-lock diagnostic and its two foils: the
// buffered send and the unlocked send.
func (b *box) handoff(v int) {
	b.mu.Lock()
	b.ch <- v  // want `send on unbuffered channel b\.ch while holding b\.mu`
	b.buf <- v // no finding: buffered
	b.mu.Unlock()
	b.ch <- v // no finding: lock released
}

// litThenSend locks inside a goroutine literal; the lock ends with the
// literal, so the send after it holds nothing.
func (b *box) litThenSend(v int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.mu.Lock()
		defer b.mu.Unlock()
	}()
	b.ch <- v // no finding: the literal's lock stayed in the literal
	wg.Wait()
}
