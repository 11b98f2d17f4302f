//go:build loader_fixture_off

package taggy

// BOff lives behind a build tag no configuration sets: the loader must never
// parse this file.
func BOff() int { return 2 }

// Deliberately broken if it ever compiles alongside a.go:
func A() int { return 0 }
