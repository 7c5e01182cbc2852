package lib

import "testing"

func TestTestOnly(t *testing.T) {
	TestOnly()
	_ = helper()
}
