//go:build race

package tiresias

// The race detector makes sync.Pool drop a share of what is put back,
// so pooling-dependent allocation counts are checked without it.
func init() { raceEnabled = true }
