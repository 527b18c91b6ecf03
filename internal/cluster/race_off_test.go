//go:build !race

package cluster

// deadlineScale is 1 in normal builds; see race_on_test.go for why race
// builds widen the timing windows.
const deadlineScale = 1

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own and so voids allocation budgets.
const raceEnabled = false
