//go:build race

package topology

// raceEnabled trims the exhaustive exactness sweep under the race detector,
// which slows it twentyfold and has nothing to find in it:
// TestLatencyConcurrent is the race test.
const raceEnabled = true
