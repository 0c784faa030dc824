// Package suppressfix exercises the //lint:ignore machinery: a
// well-formed directive silences the flagged line below it or its own
// line, a wrong check name does not, and unsuppressed sites still
// surface.
package suppressfix

import "time"

// OwnLine is suppressed by the directive on the preceding line.
func OwnLine() time.Time {
	//lint:ignore clockdiscipline the harness pins this to the wall clock on purpose
	return time.Now()
}

// Trailing is suppressed by the directive at the end of the line.
func Trailing() {
	time.Sleep(time.Millisecond) //lint:ignore clockdiscipline settling delay outside the protocol path
}

// Unsuppressed has no directive and is flagged.
func Unsuppressed() time.Time {
	return time.Now() // want "direct time.Now"
}

// WrongCheck names a real check that does not match the diagnostic, so
// the violation still surfaces — and the directive itself, having
// suppressed nothing, is reported as unused.
func WrongCheck() time.Time {
	//lint:ignore keyflow wrong check name for this site // want "suppresses nothing"
	return time.Now() // want "direct time.Now"
}
