//go:build !race

package rng

// raceEnabled reports whether the race detector is active. The allocation
// gate's numeric assertion is skipped under -race, whose instrumentation
// allocates shadow state.
const raceEnabled = false
