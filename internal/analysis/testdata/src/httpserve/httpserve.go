// Package httpserve is a tiresias-vet fixture named after the real
// serving package, so forbidimport's *default* rules apply to it: the
// serving layer may not link tool-only packages.
package httpserve

import (
	"tiresias"
	"tiresias/internal/gen" // want `import "tiresias/internal/gen" is banned in package httpserve`
	"tiresias/internal/store"
)

var (
	_ gen.Config

	// The bounded index is the serving layer's one anomaly container.
	_ = tiresias.NewAnomalyIndex
	_ = tiresias.NewIndexSink
	_ *store.Index
)
