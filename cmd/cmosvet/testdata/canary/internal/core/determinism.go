package core

import "time"

// deadline stops a search after a wall-clock budget: its result depends on
// the host's speed.
func deadline(start time.Time) bool {
	return time.Since(start) > time.Second
}

var _ = deadline
