// Command reachapp is the reachability fixture's program: each statement of
// main keeps functions of reachlib alive in a different way, and knobs
// writes the fields of reachlib in every way the field rule counts.
package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"reachlib"
)

func main() {
	var s reachlib.Shape = reachlib.Sq{Side: 2}
	fmt.Println(s.Area()) // an interface call reaches Sq.Area

	words := reachlib.ByLen{"ccc", "a", "bb"}
	sort.Sort(words) // sort calls ByLen's Len, Less and Swap

	fmt.Println(reachlib.Temp(300)) // fmt calls Temp.String

	var c reachlib.Counter
	inc := c.Inc // a method value
	inc()

	fmt.Println(reachlib.Table, reachlib.Max(3, 4)) // Table's initializer calls build
	fmt.Println(reachlib.Box[int]{V: 5}.Get())      // a method of a generic type

	report := func() { fmt.Println(reachlib.Tally()) } // only a closure calls Tally
	report()

	knobs()
}

func knobs() {
	k := reachlib.Knobs{Keyed: 1} // a keyed element
	k.Assigned = 2
	k.Summed += 3
	k.Counted++
	for _, k.Ranged = range []int{4} {
	}
	p := &k.Pointed
	*p = 5
	k.Mu.Lock() // Lock takes &k.Mu
	k.Slots[1].Add(6)
	fmt.Println(k.Keyed, k.Assigned, k.Summed, k.Counted, k.Ranged, k.Pointed, k.Slots[1].Load(), k.TestOnly)
	k.Mu.Unlock()

	pair := reachlib.Pair{7, 8} // positional elements
	var w reachlib.Wire
	if json.Unmarshal([]byte(`{"Name":"nine"}`), &w) == nil {
		fmt.Println(pair.A, pair.B, w.Name)
	}
}
