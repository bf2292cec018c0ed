//go:build !race

package distsgd

// raceDetectorEnabled is false in ordinary test builds; see
// race_enabled_test.go for why allocation counts consult it.
const raceDetectorEnabled = false
