// Package overload is the deterministic overload-control subsystem: a
// Policy parsed from a small text spec drives a per-cell Controller that
// detects sustained pressure (utilization EWMA over the ledger plus the
// signaling setup-queue depth) and responds in escalating stages with
// hysteresis — degrade cascades that push static connections toward
// b_min before anything is dropped, priority load shedding of new
// setups (handoff > new-mobile > new-static) governed by a per-cell
// token bucket, and a signaling circuit breaker that fails fast with
// ErrBusy while the plane recovers. Like internal/faults, the package
// knows nothing about core: the integration layer wires plain function
// hooks, and an Auditor checks the degrade-before-drop invariant from
// the event stream.
package overload

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"armnet/internal/faults"
)

// Policy is a parsed overload-control configuration. The zero value is
// not useful; start from Default or ParsePolicy. A nil *Policy disables
// the subsystem entirely (no timers, no events, no cost).
type Policy struct {
	// Sample is the detector sampling period in seconds.
	Sample float64
	// Alpha is the EWMA smoothing factor in (0,1]; 1 means no smoothing.
	Alpha float64

	// DegradeHigh/DegradeLow bound stage 1 (degrade cascades): entering
	// at util ≥ high, leaving at util < low (hysteresis).
	DegradeHigh, DegradeLow float64
	// ShedStaticHigh/ShedStaticLow bound stage 2 (shed new-static).
	ShedStaticHigh, ShedStaticLow float64
	// ShedMobileHigh/ShedMobileLow bound stage 3 (shed all new setups).
	ShedMobileHigh, ShedMobileLow float64

	// QueueDepth escalates every cell one extra stage while the
	// signaling setup queue holds at least this many sessions; 0
	// disables queue-driven escalation.
	QueueDepth int

	// BucketRate/BucketBurst configure the per-cell token-bucket
	// admission governor applied to new setups while the cell is at
	// stage degrade or above: setups cost one token, refilled at
	// BucketRate tokens/s up to BucketBurst. Rate 0 disables the bucket.
	BucketRate, BucketBurst float64

	// BreakerFailRate trips the signaling circuit breaker when the
	// failure fraction over the last BreakerWindow setup outcomes
	// reaches it. After BreakerCooldown seconds the breaker half-opens
	// and admits BreakerProbes trial setups; the first observed outcome
	// closes it or re-trips it.
	BreakerFailRate float64
	BreakerWindow   int
	BreakerCooldown float64
	BreakerProbes   int
	// BreakerRetrans trips the breaker directly when one sampling
	// period sees at least this many control retransmissions; 0
	// disables the retransmission-pressure trigger.
	BreakerRetrans int
}

// Default returns the reference policy the grammar's omitted directives
// fall back to.
func Default() Policy {
	return Policy{
		Sample:          5,
		Alpha:           0.3,
		DegradeHigh:     0.85,
		DegradeLow:      0.70,
		ShedStaticHigh:  0.92,
		ShedStaticLow:   0.80,
		ShedMobileHigh:  0.97,
		ShedMobileLow:   0.90,
		QueueDepth:      8,
		BreakerFailRate: 0.5,
		BreakerWindow:   16,
		BreakerCooldown: 10,
		BreakerProbes:   2,
	}
}

// String renders the policy in the ParsePolicy grammar, one directive
// per line, in canonical order — parse(s).String() is a fixpoint.
func (p *Policy) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sample %g\n", p.Sample)
	fmt.Fprintf(&b, "ewma %g\n", p.Alpha)
	fmt.Fprintf(&b, "degrade %g %g\n", p.DegradeHigh, p.DegradeLow)
	fmt.Fprintf(&b, "shed-static %g %g\n", p.ShedStaticHigh, p.ShedStaticLow)
	fmt.Fprintf(&b, "shed-mobile %g %g\n", p.ShedMobileHigh, p.ShedMobileLow)
	fmt.Fprintf(&b, "queue %d\n", p.QueueDepth)
	fmt.Fprintf(&b, "bucket %g %g\n", p.BucketRate, p.BucketBurst)
	fmt.Fprintf(&b, "breaker %g %d %g %d\n", p.BreakerFailRate, p.BreakerWindow, p.BreakerCooldown, p.BreakerProbes)
	fmt.Fprintf(&b, "breaker-retrans %d\n", p.BreakerRetrans)
	return b.String()
}

// ParsePolicy reads the line-oriented policy grammar; omitted directives
// keep their Default values:
//
//	# comments and blank lines are ignored
//	sample <seconds>
//	ewma <alpha>
//	degrade     <high> <low>
//	shed-static <high> <low>
//	shed-mobile <high> <low>
//	queue <depth>                                  # 0 disables
//	bucket <rate> <burst>                          # rate 0 disables
//	breaker <failrate> <window> <cooldown> <probes>
//	breaker-retrans <count>                        # 0 disables
//
// Thresholds must be ordered (low ≤ high per stage, stages monotone);
// all values must be finite. Errors carry the 1-based line number.
func ParsePolicy(r io.Reader) (*Policy, error) {
	p := Default()
	if err := faults.ScanLines(r, "overload", p.parseDirective); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	return &p, nil
}

func (p *Policy) parseDirective(fields []string) error {
	args := fields[1:]
	switch fields[0] {
	case "sample":
		return parseFloats(args, 1, &p.Sample)
	case "ewma":
		return parseFloats(args, 1, &p.Alpha)
	case "degrade":
		return parseFloats(args, 2, &p.DegradeHigh, &p.DegradeLow)
	case "shed-static":
		return parseFloats(args, 2, &p.ShedStaticHigh, &p.ShedStaticLow)
	case "shed-mobile":
		return parseFloats(args, 2, &p.ShedMobileHigh, &p.ShedMobileLow)
	case "queue":
		return parseInts(args, 1, &p.QueueDepth)
	case "bucket":
		return parseFloats(args, 2, &p.BucketRate, &p.BucketBurst)
	case "breaker":
		if len(args) != 4 {
			return fmt.Errorf("breaker needs 4 arguments, got %d", len(args))
		}
		if err := parseFloats(args[:1], 1, &p.BreakerFailRate); err != nil {
			return err
		}
		if err := parseInts(args[1:2], 1, &p.BreakerWindow); err != nil {
			return err
		}
		if err := parseFloats(args[2:3], 1, &p.BreakerCooldown); err != nil {
			return err
		}
		return parseInts(args[3:], 1, &p.BreakerProbes)
	case "breaker-retrans":
		return parseInts(args, 1, &p.BreakerRetrans)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// Validate checks the policy's internal consistency.
func (p *Policy) Validate() error {
	if !(p.Sample > 0) {
		return fmt.Errorf("sample period %g must be positive", p.Sample)
	}
	if !(p.Alpha > 0 && p.Alpha <= 1) {
		return fmt.Errorf("ewma alpha %g outside (0,1]", p.Alpha)
	}
	stages := []struct {
		name      string
		high, low float64
	}{
		{"degrade", p.DegradeHigh, p.DegradeLow},
		{"shed-static", p.ShedStaticHigh, p.ShedStaticLow},
		{"shed-mobile", p.ShedMobileHigh, p.ShedMobileLow},
	}
	prev := 0.0
	for _, s := range stages {
		if !(s.low > 0 && s.low <= s.high) {
			return fmt.Errorf("%s thresholds need 0 < low ≤ high, got %g %g", s.name, s.high, s.low)
		}
		if s.high > 10 {
			return fmt.Errorf("%s high threshold %g is implausible (> 10× capacity)", s.name, s.high)
		}
		if s.high < prev {
			return fmt.Errorf("%s high threshold %g below the previous stage's %g", s.name, s.high, prev)
		}
		prev = s.high
	}
	if p.QueueDepth < 0 {
		return fmt.Errorf("queue depth %d must be non-negative", p.QueueDepth)
	}
	if p.BucketRate < 0 || p.BucketBurst < 0 {
		return fmt.Errorf("bucket rate/burst must be non-negative, got %g %g", p.BucketRate, p.BucketBurst)
	}
	if p.BucketRate > 0 && p.BucketBurst < 1 {
		return fmt.Errorf("bucket burst %g must be at least 1 when the bucket is enabled", p.BucketBurst)
	}
	if !(p.BreakerFailRate > 0 && p.BreakerFailRate <= 1) {
		return fmt.Errorf("breaker failure rate %g outside (0,1]", p.BreakerFailRate)
	}
	if p.BreakerWindow < 1 {
		return fmt.Errorf("breaker window %d must be at least 1", p.BreakerWindow)
	}
	if !(p.BreakerCooldown > 0) {
		return fmt.Errorf("breaker cooldown %g must be positive", p.BreakerCooldown)
	}
	if p.BreakerProbes < 1 {
		return fmt.Errorf("breaker probes %d must be at least 1", p.BreakerProbes)
	}
	if p.BreakerRetrans < 0 {
		return fmt.Errorf("breaker-retrans %d must be non-negative", p.BreakerRetrans)
	}
	return nil
}

func parseFloats(args []string, want int, dst ...*float64) error {
	if len(args) != want {
		return fmt.Errorf("want %d arguments, got %d", want, len(args))
	}
	for i, a := range args {
		v, err := faults.ParseFinite(a)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", a, err)
		}
		*dst[i] = v
	}
	return nil
}

func parseInts(args []string, want int, dst ...*int) error {
	if len(args) != want {
		return fmt.Errorf("want %d arguments, got %d", want, len(args))
	}
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return fmt.Errorf("bad integer %q: %w", a, err)
		}
		*dst[i] = v
	}
	return nil
}
