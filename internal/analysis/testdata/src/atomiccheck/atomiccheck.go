// Package atomiccheck is a tiresias-vet fixture for the atomics
// analyzer: mixed plain/atomic access and sync/atomic.Value fire;
// disciplined use stays silent. Copies of typed atomics are go vet's
// copylocks check, not this analyzer's.
package atomiccheck

import "sync/atomic"

// counter mixes a legacy pass-by-pointer atomic with plain state.
type counter struct {
	n    uint64
	safe uint64
}

// inc is the atomic side of the contract.
func inc(c *counter) {
	atomic.AddUint64(&c.n, 1)
}

// read is the consistent way back.
func read(c *counter) uint64 {
	return atomic.LoadUint64(&c.n)
}

// mixed touches the same field without the atomic: the race the
// analyzer exists for.
func mixed(c *counter) uint64 {
	c.safe = 7 // no finding: never touched atomically
	return c.n // want `plain access of n`
}

// mixedWrite pins the write side.
func mixedWrite(c *counter) {
	c.n = 0 // want `plain access of n`
}

// mixedIgnored pins the suppression path.
func mixedIgnored(c *counter) uint64 {
	return c.n //tiresias:ignore atomiccheck (fixture: pinning the suppression path)
}

// stats holds typed atomics: vet sees a copy of hits, not of val.
type stats struct {
	hits atomic.Uint64
	val  atomic.Value // want `sync/atomic\.Value has no noCopy field`
	last atomic.Pointer[string]
}

// HitsPtr is the sound form.
func (s *stats) HitsPtr() uint64 {
	return s.hits.Load()
}
