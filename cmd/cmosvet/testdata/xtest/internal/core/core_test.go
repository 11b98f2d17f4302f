// The one seeded violation of this module sits in an external test package:
// a hotpath helper that allocates, which hotalloc flags in tests as anywhere
// else (TestExternalTestPackagesAnalyzed).
package core_test

import (
	"testing"

	"xtest/internal/core"
)

// ids is hotpath-annotated and allocates.
//
//cmosvet:hotpath
func ids(n int) []int {
	return make([]int, n)
}

func TestSize(t *testing.T) {
	if len(ids(core.Size())) != 1 {
		t.Fatal("unreachable")
	}
}
