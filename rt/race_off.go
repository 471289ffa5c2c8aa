//go:build !race

package rt

const raceEnabled = false

// poison is what race builds do to a recycled message (race_on.go).
func poison([]byte) {}
