// The one seeded violation of this module sits in an external test package:
// it constructs a model evaluator outside internal/eval, which evalroute
// flags in tests as anywhere else (TestExternalTestPackagesAnalyzed).
package core_test

import (
	"testing"

	"xtest/internal/core"
	"xtest/internal/delay"
)

func TestSize(t *testing.T) {
	if delay.New() == nil || core.Size() != 1 {
		t.Fatal("unreachable")
	}
}
