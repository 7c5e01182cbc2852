// Package lib is the deadexport fixture's internal package: each kind
// of unused exported name fires once, and each kind of use is pinned.
package lib

// Unused has no caller anywhere.
func Unused() {} // want `lib.Unused is exported but no non-test code uses it`

// UnusedType is never named.
type UnusedType struct{} // want `lib.UnusedType is exported`

// UnusedConst is never read.
const UnusedConst = 1 // want `lib.UnusedConst is exported`

// UnusedVar is never read.
var UnusedVar = 2 // want `lib.UnusedVar is exported`

// TestOnly is used by lib_test.go alone, which does not count.
func TestOnly() {} // want `lib.TestOnly is exported`

// UsedElsewhere is called from another package.
func UsedElsewhere() {}

// UsedHere is used only inside this package, which counts.
func UsedHere() int { return 3 }

func helper() int { return UsedHere() }

// T is named from another package; its method has no caller, but
// methods are out of scope.
type T struct{}

// Method is never called.
func (T) Method() {}

// Ignored is exempt.
//
//tiresias:ignore deadexport (fixture: an exemption with its reason)
func Ignored() {}
