//go:build race

package main

// raceEnabled reports whether the race detector is active. Allocation
// assertions are skipped under -race: sync.Pool intentionally drops
// items when instrumented, so pooled buffers reallocate.
const raceEnabled = true
