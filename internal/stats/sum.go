package stats

import "math"

// sumInline is how many partials a Sum holds before it allocates. A sum
// of bandwidths or buffer sizes needs two or three.
const sumInline = 8

// Sum is an exact float64 accumulator: Shewchuk's non-overlapping
// partials, the algorithm behind Python's math.fsum. Value is the
// correctly rounded sum of every Add so far, so it does not depend on
// the order of the Adds, and Add(-x) undoes Add(x) exactly — a total can
// be kept across inserts and removals instead of re-walked. Every input
// must be finite, and so must every partial sum of them. The zero value
// is an empty sum; a Sum must not be copied once it has spilled past its
// inline partials.
type Sum struct {
	n      int
	inline [sumInline]float64
	spill  []float64
}

// Add adds x to the sum. A sum of one inline partial that x joins with
// no rounding error (a kept total of integer bandwidths, nearly always)
// takes the loop's one step inline: the TwoSum error of x and the
// partial is 0, so the loop would keep their sum as the one partial, or
// none when it is 0. Anything else runs the loop.
func (s *Sum) Add(x float64) {
	if s.n == 1 && s.spill == nil {
		y := s.inline[0]
		hi := x + y
		if b := hi - x; (x-(hi-b))+(y-b) == 0 {
			s.inline[0] = hi
			if hi == 0 {
				s.n = 0
			}
			return
		}
	}
	s.add(x)
}

// add is Shewchuk's loop: x joins every partial in turn, and the
// rounding errors that are not 0 stay as the new partials.
func (s *Sum) add(x float64) {
	p := s.partials()
	i := 0
	for _, y := range p[:s.n] {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	if x != 0 {
		if i == len(p) {
			s.spill = make([]float64, 2*len(p))
			copy(s.spill, p)
			p = s.spill
		}
		p[i] = x
		i++
	}
	s.n = i
}

// partials is the storage the partials live in: the inline array until
// the sum spills, the spill slice from then on. The first n are in use,
// in increasing magnitude.
func (s *Sum) partials() []float64 {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:]
}

// Value returns the sum, correctly rounded to nearest-even.
func (s *Sum) Value() float64 {
	p, n := s.partials(), s.n
	hi, lo := 0.0, 0.0
	for n > 0 {
		n--
		x, y := hi, p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// The partials below the break round hi half-way up or down: when
	// they share lo's sign, hi + 2·lo is the correctly rounded sum if it
	// is exact. float64() keeps the multiply from fusing into the add.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := float64(lo * 2)
		x := hi + y
		if x-hi == y {
			hi = x
		}
	}
	return hi
}
