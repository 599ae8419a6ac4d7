// Package qos defines the quality-of-service vocabulary of the paper:
// bounded bandwidth requirements [b_min, b_max], end-to-end delay, jitter
// and loss targets, and the (σ, ρ) leaky-bucket traffic specification used
// by the admission tests of Table 2.
//
// Bandwidths are bits per second, delays and jitter are seconds, buffer
// sizes are bits, and packet sizes are bits. Keeping everything in bits and
// seconds lets the Table 2 formulas transcribe directly from the paper.
package qos

import (
	"errors"
	"fmt"
	"math"
)

// Common validation errors.
var (
	ErrBandwidthBounds = errors.New("qos: b_min must satisfy 0 < b_min <= b_max")
	errDelayBound      = errors.New("qos: delay bound must be positive")
	errJitterBound     = errors.New("qos: jitter bound must be positive")
	errLossBound       = errors.New("qos: loss probability must be in [0, 1)")
	errTrafficSpec     = errors.New("qos: sigma must be >= 0 and rho > 0")
)

// Bounds is the paper's loose QoS bound [b_min, b_max] on bandwidth.
// The network guarantees at least Min and opportunistically grants up to
// Max; adaptation moves the allocation inside the interval.
type Bounds struct {
	Min float64 // b_min, bits/s, minimum acceptable bandwidth
	Max float64 // b_max, bits/s, maximum useful bandwidth
}

// finite reports whether every value is a real number: a NaN fails
// every comparison, so a bound test written as "reject when v <= 0"
// would let it through.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Validate reports whether the bounds are well formed: finite, with
// 0 < Min <= Max.
func (b Bounds) Validate() error {
	if !finite(b.Min, b.Max) || b.Min <= 0 || b.Max < b.Min {
		return fmt.Errorf("%w: got [%v, %v]", ErrBandwidthBounds, b.Min, b.Max)
	}
	return nil
}

// Width returns b_max - b_min, the adaptation headroom the paper calls the
// connection's "excess demand".
func (b Bounds) Width() float64 { return b.Max - b.Min }

// Clamp returns v limited to the interval [Min, Max].
func (b Bounds) Clamp(v float64) float64 {
	if v < b.Min {
		return b.Min
	}
	if v > b.Max {
		return b.Max
	}
	return v
}

// Fixed returns bounds with Min == Max == v, i.e. a rigid (non-adaptive)
// reservation.
func Fixed(v float64) Bounds { return Bounds{Min: v, Max: v} }

// TrafficSpec is the (σ, ρ) leaky-bucket arrival envelope: over any
// interval of length t the source emits at most Sigma + Rho*t bits.
type TrafficSpec struct {
	Sigma float64 // σ, bits of burst tolerance
	Rho   float64 // ρ, bits/s sustained rate
}

// Validate reports whether the spec is well formed.
func (ts TrafficSpec) Validate() error {
	if !finite(ts.Sigma, ts.Rho) || ts.Sigma < 0 || ts.Rho <= 0 {
		return fmt.Errorf("%w: got (σ=%v, ρ=%v)", errTrafficSpec, ts.Sigma, ts.Rho)
	}
	return nil
}

// Request is the full QoS requirement an application presents when opening
// a connection (paper §5.1): bandwidth bounds, an end-to-end delay bound d,
// an end-to-end jitter bound σ̄, a loss probability bound p_e, and the
// traffic envelope.
type Request struct {
	Bandwidth Bounds
	Delay     float64 // d, seconds, end-to-end delay upper bound
	Jitter    float64 // σ̄, seconds, end-to-end delay-jitter upper bound
	Loss      float64 // p_e, maximum packet loss probability
	Traffic   TrafficSpec
}

// Validate reports whether every component of the request is well formed.
func (r Request) Validate() error {
	if err := r.Bandwidth.Validate(); err != nil {
		return err
	}
	if !finite(r.Delay) || r.Delay <= 0 {
		return fmt.Errorf("%w: got %v", errDelayBound, r.Delay)
	}
	if !finite(r.Jitter) || r.Jitter <= 0 {
		return fmt.Errorf("%w: got %v", errJitterBound, r.Jitter)
	}
	if !finite(r.Loss) || r.Loss < 0 || r.Loss >= 1 {
		return fmt.Errorf("%w: got %v", errLossBound, r.Loss)
	}
	return r.Traffic.Validate()
}

// BestEffort reports whether the request carries no real-time requirement;
// such connections bypass admission control and use leftover capacity.
func (r Request) BestEffort() bool {
	return r.Bandwidth.Min == 0 && r.Bandwidth.Max == 0
}

// Class identifies a connection type in multi-class workloads
// (paper §6.3 uses k connection types with distinct bounds).
type Class struct {
	Name      string
	Bandwidth Bounds
	// MeanHolding is 1/μ, the mean connection duration in seconds.
	MeanHolding float64
	// ArrivalRate is λ, new-connection arrivals per second per cell.
	ArrivalRate float64
	// HandoffProb is h, the probability a departing portable hands off to
	// a neighbor rather than terminating.
	HandoffProb float64
}

// Mobility is the paper's static/mobile portable classification (§3.4.2):
// a portable is static once it has stayed in one cell for T_th seconds.
type Mobility int

const (
	// Mobile portables get b_min advance-reserved in the next-predicted
	// cell and are held at their minimum QoS.
	Mobile Mobility = iota
	// Static portables get no advance reservation; their connections are
	// upgraded toward b_max by the adaptation algorithm.
	Static
)

// String implements fmt.Stringer.
func (m Mobility) String() string {
	switch m {
	case Mobile:
		return "mobile"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("Mobility(%d)", int(m))
	}
}
