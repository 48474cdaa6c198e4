// Package raceflag tells tests whether the race detector is compiled in.
// testing.AllocsPerRun pins skip under -race: the detector's
// instrumentation allocates on its own account, so exact counts only hold
// without it.
package raceflag

// Enabled is true in binaries built with -race.
var Enabled bool
