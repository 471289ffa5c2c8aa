//go:build !race

package teststubs

const raceEnabled = false
