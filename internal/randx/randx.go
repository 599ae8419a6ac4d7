// Package randx provides the deterministic random-variate helpers used by
// the traffic and mobility models: exponential, categorical and
// truncated-normal draws over a seeded math/rand source.
//
// Every experiment in this repository is seeded explicitly so that paper
// figures regenerate bit-identically from run to run.
package randx

import (
	"fmt"
	"math/rand"
)

// Rand wraps a seeded source with the distribution helpers the simulator
// needs. It is not safe for concurrent use; the simulation is single-
// threaded by design.
type Rand struct {
	src *rand.Rand
}

// New returns a deterministic generator for the given seed.
func New(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Exp returns an exponential draw with the given rate (mean 1/rate).
// It panics if rate is not positive.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("randx: non-positive exponential rate %v", rate))
	}
	return r.src.ExpFloat64() / rate
}

// normal returns a normal draw with the given mean and standard deviation.
func (r *Rand) normal(mean, stddev float64) float64 {
	return float64(r.src.NormFloat64()*stddev) + mean
}

// TruncNormal returns a normal draw clamped to [lo, hi].
// It panics if lo > hi.
func (r *Rand) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("randx: truncation bounds inverted [%v, %v]", lo, hi))
	}
	v := r.normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Categorical draws an index with probability proportional to weights[i].
// Zero-weight entries are never selected. It panics if weights is empty or
// if every weight is zero or negative.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("randx: categorical with no positive weight")
	}
	u := r.src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("randx: unreachable")
}

// Shuffle permutes s in place.
func Shuffle[T any](r *Rand, s []T) {
	r.src.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
