// Package directive is a spawnvet golden-test fixture for the
// //spawnvet: comment grammar itself: malformed directives are
// reported by the pseudo-analyzer "directive" and suppress nothing.
package directive

import "time"

// MissingJustification: the allow needs a reason, so the directive is
// reported AND the wall-clock read below it still fires.
func MissingJustification() time.Time {
	//spawnvet:allow determinism
	return time.Now()
}

// UnknownAnalyzer: the analyzer list must name real analyzers.
func UnknownAnalyzer() time.Time {
	//spawnvet:allow speling fixture justification text
	return time.Now()
}

// UnknownDirective: only allow, hotpath, pure and skipsafe exist.
func UnknownDirective() int {
	//spawnvet:ignore determinism because reasons
	return 1
}

// WellFormed suppresses cleanly: only the malformed ones above report.
func WellFormed() time.Time {
	//spawnvet:allow determinism fixture: valid directive, valid reason
	return time.Now()
}

// BareMarker: every function marker needs a justification.
//
//spawnvet:hotpath
func BareMarker() int {
	return 1
}
