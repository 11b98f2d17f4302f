package floats

import (
	"math"
	"math/rand"
	"testing"
)

// MaxNonNeg must equal the branchy running maximum bit for bit: on every
// class of x against each kind of m the precondition admits, and on random
// bit patterns, with m drawn from that domain (+0 through +Inf).
func TestMaxNonNeg(t *testing.T) {
	ref := func(m, x float64) float64 {
		if x > m {
			m = x
		}
		return m
	}
	check := func(m, x float64) bool {
		got, want := MaxNonNeg(m, x), ref(m, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MaxNonNeg(%#x, %#x) = %#x, want %#x",
				math.Float64bits(m), math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			return false
		}
		return true
	}
	ms := []float64{0, math.SmallestNonzeroFloat64, 1e-10, math.MaxFloat64, math.Inf(1)}
	var xs []float64
	for _, b := range []uint64{
		0,                  // +0
		1,                  // smallest subnormal
		0x000fffffffffffff, // largest subnormal
		0x3e112e0be826d695, // 1e-9
		0x3ff0000000000000, // 1
		0x7fefffffffffffff, // MaxFloat64
		0x7ff0000000000000, // +Inf
		0x7ff8000000000000, // quiet NaN
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0x7ff7ffffffffffff, // signalling NaN, largest payload
		0x7fffffffffffffff, // quiet NaN, every bit but the sign set
	} {
		xs = append(xs, math.Float64frombits(b), math.Float64frombits(b|1<<63))
	}
	xs = append(xs, ms...)
	for _, m := range ms {
		for _, x := range xs {
			check(m, x)
		}
	}

	rng := rand.New(rand.NewSource(1))
	const pairs = 1 << 20
	for i := 0; i < pairs; i++ {
		m := math.Float64frombits(uint64(rng.Int63n(infBits + 1)))
		var x float64
		switch i % 4 {
		case 0, 1: // any bit pattern: every sign, class and NaN
			x = math.Float64frombits(rng.Uint64())
		case 2: // next to m, ties included
			x = math.Float64frombits(math.Float64bits(m) + uint64(rng.Intn(5)) - 2)
		case 3: // NaNs, either sign, quiet or signalling
			x = math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&(1<<63|(1<<52-1)))
		}
		if !check(m, x) {
			return
		}
	}
}
