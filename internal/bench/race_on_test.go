//go:build race

package bench

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random and allocation counts stop being meaningful.
const raceEnabled = true
