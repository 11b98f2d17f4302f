// Package obs stands in for the observability layer whose read API
// obswriteonly reserves for the tool layers.
package obs

// Counter is an int64 metric.
type Counter struct{ v int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v += n }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v }
