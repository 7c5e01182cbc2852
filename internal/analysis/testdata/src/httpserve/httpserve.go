// Package httpserve is a tiresias-vet fixture named after the real
// serving package, so forbidimport's *default* rules apply to it: the
// serving layer may not reach the unbounded report store — by import
// or through the root aliases — nor link tool-only packages.
package httpserve

import (
	"tiresias"
	"tiresias/internal/gen"    // want `import "tiresias/internal/gen" is banned in package httpserve`
	"tiresias/internal/report" // want `import "tiresias/internal/report" is banned in package httpserve`
	"tiresias/internal/store"
)

var (
	_ *tiresias.Store         // want `tiresias\.Store is banned in package httpserve`
	_ = tiresias.NewStore     // want `tiresias\.NewStore is banned in package httpserve`
	_ = tiresias.NewStoreSink // want `tiresias\.NewStoreSink is banned in package httpserve`
	_ = report.NewStore
	_ gen.Config

	// The bounded index is the serving layer's one anomaly container.
	_ = tiresias.NewAnomalyIndex
	_ = tiresias.NewIndexSink
	_ *store.Index
)
