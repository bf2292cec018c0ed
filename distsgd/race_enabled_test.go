//go:build race

package distsgd

// raceDetectorEnabled reports whether this test binary was built with
// -race. Under the race detector sync.Pool drops pooled values at
// random, so code that takes its scratch from a pool allocates now and
// then; the allocation counts are asserted in ordinary builds only.
const raceDetectorEnabled = true
