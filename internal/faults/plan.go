// Package faults is the deterministic fault-injection subsystem: a Plan
// of composable rules — probabilistic control-message faults and timed
// component faults — is parsed from a small text spec and executed on the
// simulator clock by an Injector whose every draw comes from a
// seed-derived RNG. The package deliberately knows nothing about the
// protocol packages it perturbs: internal/signal and internal/maxmin
// expose plain delivery-hook function types that the Injector's methods
// satisfy structurally, and component faults act through the Driver
// interface the integration layer implements. An Auditor checks the
// recovery invariants (no leaked holds, ledger conservation, maxmin
// re-convergence) after chaos runs.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MsgRule is one probabilistic control-message fault: with probability
// Prob, the rule acts on each delivered message of the matching protocol.
type MsgRule struct {
	// Proto selects the protocol: "signal", "maxmin", or "any".
	Proto string
	// Action is "drop", "dup", or "delay".
	Action string
	// Prob is the per-message firing probability in [0,1].
	Prob float64
	// Delay is the added latency in seconds (delay rules only).
	Delay float64
}

// TimedFault is one scheduled component fault.
type TimedFault struct {
	// At is the simulated time the fault fires.
	At float64
	// Action is one of "link-down", "link-up", "cell-out",
	// "cell-restore", "crash-zone", "blackout", "crash-signaling".
	Action string
	// Target names the link, cell, or zone (empty for crash-signaling).
	Target string
	// For, when positive, schedules the matching restoration at At+For
	// (link-down→link-up, cell-out→cell-restore; blackout requires it).
	For float64
}

// Plan is a composed fault schedule. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	Messages []MsgRule
	Timed    []TimedFault
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Messages) == 0 && len(p.Timed) == 0)
}

// String renders the plan back in the ParsePlan grammar, one rule per
// line, timed faults sorted by time.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range p.Messages {
		switch r.Action {
		case "delay":
			fmt.Fprintf(&b, "delay %s %g %g\n", r.Proto, r.Prob, r.Delay)
		default:
			fmt.Fprintf(&b, "%s %s %g\n", r.Action, r.Proto, r.Prob)
		}
	}
	timed := append([]TimedFault(nil), p.Timed...)
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].At < timed[j].At })
	for _, f := range timed {
		fmt.Fprintf(&b, "at %g %s", f.At, f.Action)
		if f.Target != "" {
			fmt.Fprintf(&b, " %s", f.Target)
		}
		if f.For > 0 {
			fmt.Fprintf(&b, " for %g", f.For)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParsePlan reads the line-oriented plan grammar:
//
//	# comments and blank lines are ignored
//	drop  <proto> <prob>             # proto: signal | maxmin | any
//	dup   <proto> <prob>
//	delay <proto> <prob> <seconds>
//	at <time> link-down <link> [for <duration>]
//	at <time> link-up <link>
//	at <time> cell-out <cell> [for <duration>]
//	at <time> cell-restore <cell>
//	at <time> crash-zone <zone>
//	at <time> blackout <cell> for <duration>
//	at <time> crash-signaling
//
// Probabilities must lie in [0,1]; times and durations must be finite and
// non-negative. Errors carry the 1-based line number.
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "drop", "dup", "delay":
			err = p.parseMsgRule(fields)
		case "at":
			err = p.parseTimed(fields)
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return p, nil
}

func (p *Plan) parseMsgRule(fields []string) error {
	action := fields[0]
	want := 3
	if action == "delay" {
		want = 4
	}
	if len(fields) != want {
		return fmt.Errorf("%s needs %d arguments, got %d", action, want-1, len(fields)-1)
	}
	proto := fields[1]
	switch proto {
	case "signal", "maxmin", "any":
	default:
		return fmt.Errorf("unknown protocol %q (want signal, maxmin, or any)", proto)
	}
	prob, err := ParseFinite(fields[2])
	if err != nil {
		return fmt.Errorf("bad probability %q: %w", fields[2], err)
	}
	if prob < 0 || prob > 1 {
		return fmt.Errorf("probability %v outside [0,1]", prob)
	}
	rule := MsgRule{Proto: proto, Action: action, Prob: prob}
	if action == "delay" {
		d, err := ParseFinite(fields[3])
		if err != nil {
			return fmt.Errorf("bad delay %q: %w", fields[3], err)
		}
		if d < 0 {
			return fmt.Errorf("delay %v must be non-negative", d)
		}
		rule.Delay = d
	}
	p.Messages = append(p.Messages, rule)
	return nil
}

func (p *Plan) parseTimed(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("at needs a time and an action")
	}
	at, err := ParseFinite(fields[1])
	if err != nil {
		return fmt.Errorf("bad time %q: %w", fields[1], err)
	}
	if at < 0 {
		return fmt.Errorf("time %v must be non-negative", at)
	}
	f := TimedFault{At: at, Action: fields[2]}
	rest := fields[3:]
	needTarget := true
	allowFor := false
	switch f.Action {
	case "link-down", "cell-out":
		allowFor = true
	case "blackout":
		allowFor = true
	case "link-up", "cell-restore", "crash-zone":
	case "crash-signaling":
		needTarget = false
	default:
		return fmt.Errorf("unknown fault action %q", f.Action)
	}
	if needTarget {
		if len(rest) == 0 {
			return fmt.Errorf("%s needs a target", f.Action)
		}
		f.Target = rest[0]
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if !allowFor || len(rest) != 2 || rest[0] != "for" {
			return fmt.Errorf("trailing arguments %v", rest)
		}
		dur, err := ParseFinite(rest[1])
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", rest[1], err)
		}
		if dur <= 0 {
			return fmt.Errorf("duration %v must be positive", dur)
		}
		f.For = dur
	}
	if f.Action == "blackout" && f.For <= 0 {
		return fmt.Errorf("blackout needs `for <duration>`")
	}
	p.Timed = append(p.Timed, f)
	return nil
}

// ParseFinite parses a float64 and rejects NaN and ±Inf (the simulator
// clock cannot absorb them). The live-wire grammar in internal/netfaults
// parses its numbers through it too.
func ParseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v != v || v > 1e300 || v < -1e300 {
		return 0, fmt.Errorf("value %v is not finite", v)
	}
	return v, nil
}
