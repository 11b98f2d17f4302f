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

func TestTestOnly(t *testing.T) {
	if k := (Knobs{TestOnly: 1}); k.TestOnly != 1 {
		t.Fatal("TestOnly")
	}
}
