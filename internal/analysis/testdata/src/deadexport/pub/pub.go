// Package pub is not internal, so its unused exports are public API.
package pub

// Public has no caller in the module.
func Public() {}
