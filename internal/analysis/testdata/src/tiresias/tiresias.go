// Package tiresias is a tiresias-vet fixture named after the root
// package, so forbidimport's *default* rules apply to it: map-form
// timeunits stay off the detector path.
package tiresias

import (
	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

func step(e algo.Engine, u *algo.DenseUnit, t *hierarchy.Tree) error {
	m := u.Timeunit(t)                                 // want `algo\.Timeunit is banned in package tiresias`
	if _, err := algo.StepTimeunit(e, m); err != nil { // want `algo\.StepTimeunit is banned`
		return err
	}
	var _ algo.Timeunit      // want `algo\.Timeunit is banned`
	_, err := e.StepDense(u) // the dense step is the detector's
	return err
}
