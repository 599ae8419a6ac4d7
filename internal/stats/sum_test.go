package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"armnet/internal/raceflag"
)

// exactSum is the reference: the inputs added in math/big at a precision
// wide enough to hold any sum of them exactly, rounded to nearest-even.
func exactSum(xs []float64) float64 {
	t := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		t.Add(t, new(big.Float).SetFloat64(x))
	}
	f, _ := t.Float64()
	return f
}

func sumOf(xs []float64) float64 {
	var s Sum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Value()
}

func TestSumCorrectlyRounded(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, 1},
		{[]float64{1e100, 1, -1e100, 1e-100, 1e50, -1, -1e50}, 1e-100},
		// Half-way between two floats; the 1e-16 decides the rounding.
		{[]float64{1e-16, 1, 1e16}, 10000000000000002},
		{[]float64{1, 1e16, 1e-16}, 10000000000000002},
		{[]float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}, 0},
	} {
		if got := sumOf(c.xs); got != c.want || got != exactSum(c.xs) {
			t.Errorf("sum %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSumSpillsPastInline: more non-overlapping partials than the inline
// array holds move to the spill slice and stay exact.
func TestSumSpillsPastInline(t *testing.T) {
	var xs []float64
	for k := -15; k <= 15; k++ {
		xs = append(xs, math.Ldexp(1, 60*k))
	}
	var s Sum
	for _, x := range xs {
		s.Add(x)
	}
	if s.spill == nil || s.n != len(xs) {
		t.Fatalf("%d partials, spilled %v; want %d, spilled", s.n, s.spill != nil, len(xs))
	}
	if got, want := s.Value(), exactSum(xs); got != want {
		t.Fatalf("Value = %v, want %v", got, want)
	}
	for _, x := range xs {
		s.Add(-x)
	}
	if s.n != 0 || s.Value() != 0 {
		t.Fatalf("after taking every input back: %d partials, Value %v", s.n, s.Value())
	}
}

func TestSumAllocFreeInline(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	var sink float64
	if got := testing.AllocsPerRun(100, func() {
		var s Sum
		for i := 0; i < 64; i++ {
			s.Add(float64(i) * 0.1)
		}
		sink += s.Value()
	}); got != 0 {
		t.Fatalf("a Sum within its inline partials allocates %v/op", got)
	}
}

// FuzzSumExact holds Value to the math/big sum rounded to nearest-even:
// in input order, in a permuted order, and after a random subset has
// been taken back out with Add(-x), which must leave exactly the sum of
// the rest — and nothing at all once every input is taken back.
func FuzzSumExact(f *testing.F) {
	le := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(le(0.1, 0.2, 0.3), int64(1))
	f.Add(le(1e-16, 1, 1e16), int64(2))
	f.Add(le(1e100, 1, -1e100, 1e-100, 1e50, -1, -1e50), int64(3))
	f.Add(le(235782.38376368568, 17e3, 96e3, 8e3+1.0/3, 128e3*1.7, 12345.678), int64(4))
	f.Add(le(math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 5e-324, 1, -1), int64(5))
	f.Add(le(0x1p900, 0x1p-900, -0x1p900, 3, 0x1p500, 0x1p-500), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			// Finite, and small enough that no partial sum overflows.
			if math.Abs(x) < 0x1p960 {
				xs = append(xs, x)
			}
		}
		want := exactSum(xs)
		if got := sumOf(xs); got != want {
			t.Fatalf("sum of %v = %v, want %v", xs, got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(xs))
		var s Sum
		for _, i := range perm {
			s.Add(xs[i])
		}
		if got := s.Value(); got != want {
			t.Fatalf("permuted sum of %v = %v, want %v", xs, got, want)
		}
		var kept []float64
		for _, i := range rng.Perm(len(xs)) {
			if rng.Intn(2) == 0 {
				s.Add(-xs[i])
			} else {
				kept = append(kept, xs[i])
			}
		}
		if got, want := s.Value(), exactSum(kept); got != want {
			t.Fatalf("after taking back all but %v of %v: %v, want %v", kept, xs, got, want)
		}
		for _, x := range kept {
			s.Add(-x)
		}
		if s.n != 0 || s.Value() != 0 {
			t.Fatalf("after taking back every input of %v: %d partials, Value %v", xs, s.n, s.Value())
		}
	})
}

// loopSum is Add before its one-partial fast path, kept as the test-only
// reference: Shewchuk's loop over every partial, whatever their number.
type loopSum struct{ p []float64 }

func (r *loopSum) add(x float64) {
	i := 0
	for _, y := range r.p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			r.p[i] = lo
			i++
		}
		x = hi
	}
	r.p = r.p[:i]
	if x != 0 {
		r.p = append(r.p, x)
	}
}

// sameAsLoop reports the first difference between a Sum's partials and
// the reference's, bit for bit, or "".
func sameAsLoop(s *Sum, r *loopSum) string {
	p := s.partials()[:s.n]
	if len(p) != len(r.p) {
		return fmt.Sprintf("%d partials %v, loop %d %v", len(p), p, len(r.p), r.p)
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(r.p[i]) {
			return fmt.Sprintf("partials %v, loop %v", p, r.p)
		}
	}
	return ""
}

// TestSumAddMatchesLoop holds Add to the loop it short-cuts: after every
// Add of integer, fractional, cancelling and signed-zero sequences, and
// of random mixes of them, the partials and their count are the loop's
// exactly. An Add that takes the fast path when the join is not exact
// drops a rounding error the loop keeps.
func TestSumAddMatchesLoop(t *testing.T) {
	seqs := map[string][]float64{
		"integers":   {64e3, 128e3, 256e3, 384e3, -128e3, -64e3, 32e3, -384e3, -256e3, -32e3},
		"fractional": {0.1, 0.2, 0.3, -0.1, 1.0 / 3, -0.2, -1.0 / 3, -0.3},
		"cancelling": {1e16, 1, -1e16, -1, 1e100, 1e-100, -1e100, -1e-100},
		"halfway":    {1e16, 1, 1, -1e16, -1, -1},
		"zeros":      {0, math.Copysign(0, -1), 5, math.Copysign(0, -1), 0, -5, 0, math.Copysign(0, -1)},
		"subnormal":  {math.SmallestNonzeroFloat64, 1, -1, -math.SmallestNonzeroFloat64, 0x1p-1074, 0x1p-1022},
		"tiny-big":   {0x1p900, 0x1p-900, -0x1p900, 3, 0x1p500, -3, -0x1p500, -0x1p-900},
		"bandwidths": {235782.38376368568, 17e3, -235782.38376368568, 8e3 + 1.0/3, -17e3, -(8e3 + 1.0/3)},
	}
	rng := rand.New(rand.NewSource(1))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 64e3, -64e3, 0.1, -0.1, 1e16, -1e16, 1.0 / 3, 0x1p-60, 0x1p60, -0x1p60}
	for k := 0; k < 200; k++ {
		var xs []float64
		for range 40 {
			x := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				x = float64(rng.Int63n(1e6)) * []float64{1, 0.25, 0.1}[rng.Intn(3)]
			}
			xs = append(xs, x)
		}
		seqs[fmt.Sprintf("mix-%d", k)] = xs
	}
	fast := 0
	for name, xs := range seqs {
		var s Sum
		var r loopSum
		for i, x := range xs {
			if s.n == 1 && s.spill == nil {
				fast++
			}
			s.Add(x)
			r.add(x)
			if d := sameAsLoop(&s, &r); d != "" {
				t.Fatalf("%s: after Add %d (%v) of %v: %s", name, i, x, xs, d)
			}
		}
		// Taking every input back in reverse ends empty on both sides.
		for i := len(xs) - 1; i >= 0; i-- {
			s.Add(-xs[i])
			r.add(-xs[i])
			if d := sameAsLoop(&s, &r); d != "" {
				t.Fatalf("%s: taking back %v: %s", name, xs[i], d)
			}
		}
	}
	if fast == 0 {
		t.Fatal("no Add met a one-partial sum: the fast path was never offered")
	}
}
