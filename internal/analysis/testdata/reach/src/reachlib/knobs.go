package reachlib

import (
	"sync"
	"sync/atomic"
)

// Knobs has one field for each way a program writes a field, and TestOnly,
// which only a test writes. Main reads every field, so the field rule
// reports exactly TestOnly. Pair and Wire below, and Box in lib.go (a field
// of a generic type), cover the other ways.
type Knobs struct {
	Keyed    int             // a keyed composite-literal element
	Assigned int             // the left side of =
	Summed   int             // the left side of op=
	Counted  int             // ++
	Ranged   int             // a range clause
	Pointed  int             // &k.Pointed
	Mu       sync.Mutex      // a pointer-receiver method call on k.Mu
	Slots    [2]atomic.Int64 // a pointer-receiver method call on k.Slots[i]
	TestOnly int             // written by no program
}

// Pair's fields are written by a positional composite literal.
type Pair struct{ A, B int }

// Wire's field is written only by encoding/json, through a pointer.
type Wire struct{ Name string }
