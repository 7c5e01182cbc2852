// Command app uses the fixture library from outside its package.
package main

import "deadexport/internal/lib"

func main() {
	lib.UsedElsewhere()
	_ = lib.T{}
}
