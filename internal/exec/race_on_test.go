//go:build race

package exec

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// entries and allocation counts do not hold.
const raceEnabled = true
