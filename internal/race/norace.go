//go:build !race

// Package race tells tests whether the race detector is compiled in.
// Under -race, sync.Pool drops a share of its Puts and the instrumented
// runtime allocates on its own, so tests that pin exact allocation
// counts skip those assertions when Enabled is true.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
