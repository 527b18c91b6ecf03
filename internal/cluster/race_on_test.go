//go:build race

package cluster

// deadlineScale widens straggler and receive deadlines under the race
// detector, whose instrumentation can stall a goroutine long enough to push
// an otherwise-punctual report past the tight windows the fast build uses.
// Scaling every window of a test by the same factor preserves the deadline
// relationships under test while restoring the timing margin that keeps
// quorum cohorts — and hence results — deterministic.
const deadlineScale = 4

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own and so voids allocation budgets.
const raceEnabled = true
