package core

import "time"

// InstrumentedWork shows the documented suppression for obs-only timing.
func InstrumentedWork(record func(time.Duration)) {
	t0 := time.Now() //cmosvet:allow determinism — wall-clock feeds an obs histogram only
	work()
	//cmosvet:allow determinism — wall-clock feeds an obs histogram only
	record(time.Since(t0))
}
