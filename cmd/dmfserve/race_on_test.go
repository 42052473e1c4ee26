//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc pins skip themselves under it: sync.Pool drops a random
// share of Puts when the detector is on, so pooled scratch is rebuilt and
// the count measures the race runtime, not the handler.
const raceEnabled = true
