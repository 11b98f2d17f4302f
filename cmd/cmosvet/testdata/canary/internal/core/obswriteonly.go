package core

import "canary/internal/obs"

// budget steers a search by an instrumentation counter.
func budget(evals *obs.Counter) bool {
	return evals.Value() > 1000
}

var _ = budget
