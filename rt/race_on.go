//go:build race

package rt

// raceEnabled reports whether this binary runs under the race detector,
// whose instrumentation changes per-call allocation counts (tests
// consult it).
const raceEnabled = true

// poisonByte fills a recycled message in race builds.
const poisonByte = 0xDB

var poisonPage = func() []byte {
	p := make([]byte, arenaSmall)
	for i := range p {
		p[i] = poisonByte
	}
	return p
}()

// poison overwrites a message before its receive buffer re-enters a
// pool (arena.go), so a view kept past its borrow reads 0xDB rather than
// another message's bytes. A page at a time: a bulk copy is one event to
// the race detector, a byte loop is one per byte.
func poison(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, poisonPage):]
	}
}
