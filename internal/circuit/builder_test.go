package circuit

import (
	"strings"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("half-adder")
	a := b.Input("a")
	bb := b.Input("b")
	sum := b.Gate(Xor, "sum", a, bb)
	carry := b.Gate(And, "carry", a, bb)
	b.Output(sum)
	b.Output(carry)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || len(c.PIs) != 2 || len(c.POs) != 2 {
		t.Errorf("got N=%d PIs=%d POs=%d", c.N(), len(c.PIs), len(c.POs))
	}
	if got := c.csr.Fanouts(int32(a)); len(got) != 2 {
		t.Errorf("input a fanout = %v, want 2 entries", got)
	}
}

func TestBuilderErrorsSticky(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Input("a")
	b.Gate(Nand, "g", a) // NAND needs ≥2 fanins -> error
	if b.Err() == nil {
		t.Fatal("expected recorded error")
	}
	// Subsequent calls are no-ops and Build reports the first error.
	b.Gate(Not, "h", a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "NAND") {
		t.Errorf("Build err = %v, want NAND fanin error", err)
	}
}

func TestBuilderRejects(t *testing.T) {
	cases := []struct {
		name string
		run  func(b *Builder)
		want string
	}{
		{"dup name", func(b *Builder) { b.Input("a"); b.Input("a") }, "duplicate"},
		{"empty name", func(b *Builder) { b.Input("") }, "empty"},
		{"forward fanin", func(b *Builder) { a := b.Input("a"); b.Gate(Nand, "g", a, 7) }, "bad fanin"},
		{"input via Gate", func(b *Builder) { b.Gate(Input, "x") }, "use Input"},
		{"output range", func(b *Builder) { b.Input("a"); b.Output(9) }, "out of range"},
		{"no inputs", func(b *Builder) {}, "no primary inputs"},
	}
	for _, tc := range cases {
		b := NewBuilder("t")
		tc.run(b)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestBuilderOutputIdempotent(t *testing.T) {
	b := NewBuilder("t")
	a := b.Input("a")
	g := b.Gate(Not, "g", a)
	b.Output(g)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) != 1 {
		t.Errorf("POs = %v, want single entry", c.POs)
	}
}
