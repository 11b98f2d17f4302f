// Package reachlib is the reachability fixture's library. Every function is
// reachable from reachapp's main except unused and Sq.Perimeter.
package reachlib

import "fmt"

// Shape is called through by main.
type Shape interface{ Area() float64 }

// Sq is a square.
type Sq struct{ Side float64 }

// Area is reached only through Shape.
func (s Sq) Area() float64 { return s.Side * s.Side }

// Perimeter is dead: nothing outside the tests calls it.
func (s Sq) Perimeter() float64 { return 4 * s.Side }

// ByLen orders strings by length; only sort.Sort calls its methods.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Temp is a temperature; only fmt calls its String method.
type Temp float64

func (t Temp) String() string { return fmt.Sprintf("%.0f K", float64(t)) }

// Counter counts; main calls Inc through a method value.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Table is the one reference to build.
var Table = build()

func build() []int { return []int{1, 2, 3} }

var registered bool

func init() { registered = register() }

func register() bool { return true }

// Max is generic; main calls an instance of it.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box is generic; main calls Get on an instance of it.
type Box[T any] struct{ V T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.V }

// Tally is called from a closure.
func Tally() int { return len(Table) }

// unused is dead: nothing outside the tests calls it.
func unused() int { return 42 }
