// Package ignorecase is a tiresias-vet fixture pinning the
// //tiresias:ignore directive's edge cases: suppression from the line
// above a multi-line statement, several analyzers in one directive,
// and the rejection of directives without a justification.
package ignorecase

type buf struct{}

// aboveMultiline: a directive on its own line suppresses diagnostics
// anchored to the first line of the multi-line statement below it.
//
//tiresias:hotpath
func aboveMultiline() map[string]int {
	//tiresias:ignore hotpath (fixture: directive above a multi-line statement)
	m := map[string]int{
		"a": 1,
	}
	return m
}

// multiAnalyzer: one directive names several analyzers; the hotpath
// finding on the line is suppressed even though another analyzer is
// listed first.
//
//tiresias:hotpath
func multiAnalyzer() *buf {
	return &buf{} //tiresias:ignore locks hotpath (fixture: several analyzers in one directive)
}

// unjustified: a directive without a justification is itself reported
// and suppresses nothing — the hotpath finding fires alongside it.
//
//tiresias:hotpath
func unjustified() *buf {
	return &buf{} //tiresias:ignore hotpath want `missing its justification` `&buf{} escapes to heap`
}

// emptyJustified: "()" is an empty justification, which is no
// justification at all.
//
//tiresias:hotpath
func emptyJustified() *buf {
	return &buf{} //tiresias:ignore hotpath () want `missing its justification` `&buf{} escapes to heap`
}
