// Package core is clean; its external test package is not (core_test.go).
package core

// Size is what the external test exercises.
func Size() int { return 1 }
