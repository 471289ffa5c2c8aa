//go:build race

package teststubs

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation changes per-call allocation counts.
const raceEnabled = true
