//go:build race

package core

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation (and deliberate sync.Pool randomization) perturbs
// allocation counts; the AllocsPerRun gates skip themselves and run for
// real in the non-race `make verify` step.
const raceEnabled = true
