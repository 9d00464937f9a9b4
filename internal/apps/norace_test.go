//go:build !race

package apps

// raceDetector reports that the tests run under the race detector. Its
// instrumented slices.Grow allocates a temporary per growth, so the
// allocation budgets read more objects and bytes under it.
const raceDetector = false
