package core

import (
	"context"
	"time"
)

// AnnealConfig stands in for optimize.AnnealConfig.
type AnnealConfig struct{ Stop func() bool }

// Problem holds the run context.
type Problem struct{ ctx context.Context }

// OptimizeAnneal's stop hook from internal/core/annealopt.go, with a 30 s
// wall-clock budget added: a slow or large run returns whatever state the
// annealer reached by then, so its result depends on the host's speed and
// load. Every test anneals a small circuit in well under a second, so go
// test ./... passes with this mutant.
func (p *Problem) OptimizeAnneal(cfg AnnealConfig) AnnealConfig {
	start := time.Now()                                                                        // want `time.Now in a deterministic package`
	cfg.Stop = func() bool { return p.ctx.Err() != nil || time.Since(start) > 30*time.Second } // want `time.Since in a deterministic package`
	return cfg
}
