package reachlib

import "testing"

func TestUnused(t *testing.T) {
	if unused() != 42 {
		t.Fatal("unused")
	}
}

func TestPerimeter(t *testing.T) {
	if (Sq{Side: 1}).Perimeter() != 4 {
		t.Fatal("perimeter")
	}
}
