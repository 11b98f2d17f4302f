// Command reachapp is the reachability fixture's program: each statement of
// main keeps functions of reachlib alive in a different way.
package main

import (
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
}
