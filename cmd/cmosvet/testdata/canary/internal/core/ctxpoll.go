package core

import (
	"context"

	"canary/internal/eval"
)

// sweep evaluates every point and never polls its context: a canceled run
// would finish the whole sweep.
func sweep(ctx context.Context, e *eval.Engine, points []float64) float64 {
	worst := 0.0
	for _, v := range points {
		worst = max(worst, e.CriticalDelay(v))
	}
	return worst
}

var _ = sweep
