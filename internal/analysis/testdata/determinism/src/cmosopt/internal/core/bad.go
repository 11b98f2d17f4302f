// Package core (fixture): positive cases of the determinism analyzer.
package core

import "time"

// WallClock consults the wall clock inside a deterministic package.
func WallClock() time.Duration {
	t0 := time.Now() // want `time.Now in a deterministic package`
	work()
	return time.Since(t0) // want `time.Since in a deterministic package`
}

func work() {}
