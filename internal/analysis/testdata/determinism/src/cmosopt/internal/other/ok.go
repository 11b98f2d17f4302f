// Package other is outside the deterministic scope: wall-clock reads are not
// flagged here.
package other

import "time"

// Timestamp is fine outside the deterministic packages.
func Timestamp() time.Time { return time.Now() }
