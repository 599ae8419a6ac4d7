// Package faults is the deterministic fault-injection subsystem: a Plan
// of composable rules — probabilistic control-message faults and timed
// component faults — is parsed from a small text spec and executed by a
// seed-salted injector. The package owns the one plan model, grammar,
// rule walk and `for`-expansion both fault planes use, and is itself the
// simulated plane's front-end: its Injector perturbs the protocol
// delivery hooks and drives component faults on the simulator clock,
// while internal/testnet's chaos layer walks the same plans over the
// encoded frames of the live transports. The package deliberately knows nothing about
// the protocol packages it perturbs: internal/signal and internal/maxmin
// expose plain delivery-hook function types that the Injector's methods
// satisfy structurally, and component faults act through the Driver
// interface the integration layer implements. An Auditor checks the
// recovery invariants (no leaked holds, ledger conservation, maxmin
// re-convergence) after chaos runs.
package faults

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// rule is one probabilistic control-message fault: with probability
// Prob, the rule acts on each message (sim plane) or frame (wire plane)
// of the matching protocol.
type rule struct {
	// Proto selects the protocol: "signal", "maxmin", or "any".
	Proto string
	// Action is "drop", "dup", "delay", or (wire plane) "reorder".
	Action string
	// Prob is the per-message firing probability in [0,1].
	Prob float64
	// Delay is the added latency in seconds (delay rules: reported to
	// the sending protocol; reorder rules: the frame's fabric delivery
	// is deferred by this much while the protocol proceeds, letting
	// later frames overtake it).
	Delay float64
	// Link, when non-empty, restricts the rule to messages or frames
	// crossing that backbone link (both planes: the delivery hooks name
	// the link each hop crosses).
	Link string
}

// Timed is one scheduled fault.
type Timed struct {
	// At is the fault time in seconds from scenario (or soak epoch)
	// start.
	At float64
	// Action is a timed directive of the grammar below, or the action
	// restoring one (see Restoration).
	Action string
	// Target names the link, cell, zone or node agent (empty for
	// crash-signaling).
	Target string
	// For, when positive, is the outage duration: the restoring action
	// follows at At+For. A crash with For == 0 never restarts on its
	// own.
	For float64
}

// Plan is a composed fault schedule. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	Rules []rule
	Timed []Timed
}

// plane names who executes a directive. A plan is parsed for exactly
// one plane: a directive that plane cannot execute is a parse error,
// never a silent skip.
type plane uint8

const (
	simPlane   plane = 1 << iota // this package's Injector: delivery hooks and Driver
	wirePlane                    // internal/testnet's chaos layer: frames between controller and node agents
	bothPlanes = simPlane | wirePlane
)

// planePkg is the prefix of each plane's parse errors.
var planePkg = [...]string{simPlane: "faults", wirePlane: "netfaults"}

// directive is one row of the grammar: who executes the action and what
// arguments it takes. Rules read `<action> <proto> <prob> [<seconds>]
// [on <link>]`, timed faults `at <time> <action> [<target>] [for
// <duration>]`.
type directive struct {
	planes  plane
	rule    bool   // per-message rule; otherwise a timed fault
	seconds bool   // rule takes a <seconds> argument
	target  bool   // timed fault names a target
	dur     bool   // `for <duration>` may follow
	durMust bool   // ... and must
	restore string // action ending the outage at At+For
}

var directives = map[string]directive{
	"drop":         {planes: bothPlanes, rule: true},
	"dup":          {planes: bothPlanes, rule: true},
	"delay":        {planes: bothPlanes, rule: true, seconds: true},
	"reorder":      {planes: wirePlane, rule: true, seconds: true},
	"link-down":    {planes: simPlane, target: true, dur: true, restore: "link-up"},
	"link-up":      {planes: simPlane, target: true},
	"cell-out":     {planes: simPlane, target: true, dur: true, restore: "cell-restore"},
	"cell-restore": {planes: simPlane, target: true},
	"crash-zone":   {planes: simPlane, target: true},
	// A blackout's duration is an argument of the fault itself (the
	// channel recovers on its own), so nothing restores it.
	"blackout":        {planes: simPlane, target: true, dur: true, durMust: true},
	"crash-signaling": {planes: simPlane},
	"partition":       {planes: wirePlane, target: true, dur: true, durMust: true, restore: "heal"},
	"crash":           {planes: wirePlane, target: true, dur: true, restore: "restart"},
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Rules) == 0 && len(p.Timed) == 0)
}

// String renders the plan back in the ParsePlan grammar, one rule per
// line, timed faults sorted by time.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "%s %s %g", r.Action, r.Proto, r.Prob)
		if directives[r.Action].seconds {
			fmt.Fprintf(&b, " %g", r.Delay)
		}
		if r.Link != "" {
			fmt.Fprintf(&b, " on %s", r.Link)
		}
		b.WriteByte('\n')
	}
	timed := append([]Timed(nil), p.Timed...)
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

// Restoration returns the event ending a fault that has a duration and a
// restoring action — link-down→link-up, cell-out→cell-restore,
// partition→heal, crash→restart — at At+For; ok is false for every
// other fault.
func (f Timed) Restoration() (end Timed, ok bool) {
	restore := directives[f.Action].restore
	if restore == "" || !(f.For > 0) {
		return Timed{}, false
	}
	return Timed{At: f.At + f.For, Action: restore, Target: f.Target}, true
}

// Events expands the timed faults into the sequence a harness posts on
// its clock: each fault in plan order, immediately followed by its
// Restoration when it has one.
func (p *Plan) Events() []Timed {
	var out []Timed
	for _, f := range p.Timed {
		out = append(out, f)
		if end, ok := f.Restoration(); ok {
			out = append(out, end)
		}
	}
	return out
}

// ParsePlan reads a plan for the simulated plane in the line-oriented
// grammar both planes share; the last column says which plane executes a
// directive, and the other plane's parser rejects it:
//
//	# comments and blank lines are ignored          plane
//	drop    <proto> <prob> [on <link>]              both   (proto: signal | maxmin | any)
//	dup     <proto> <prob> [on <link>]              both
//	delay   <proto> <prob> <seconds> [on <link>]    both
//	reorder <proto> <prob> <seconds> [on <link>]    wire
//	at <time> link-down <link> [for <duration>]     sim
//	at <time> link-up <link>                        sim
//	at <time> cell-out <cell> [for <duration>]      sim
//	at <time> cell-restore <cell>                   sim
//	at <time> crash-zone <zone>                     sim
//	at <time> blackout <cell> for <duration>        sim
//	at <time> crash-signaling                       sim
//	at <time> partition <node> for <duration>       wire
//	at <time> crash <node> [for <duration>]         wire
//
// An `on <link>` filter restricts a rule to the link the delivery hook
// names. Probabilities must lie in [0,1]; times and durations must be
// finite and non-negative. Errors carry the plane's prefix ("faults" or
// "netfaults") and the 1-based line number.
func ParsePlan(r io.Reader) (*Plan, error) { return parse(r, simPlane) }

// ParseWirePlan is ParsePlan for the wire plane.
func ParseWirePlan(r io.Reader) (*Plan, error) { return parse(r, wirePlane) }

func parse(r io.Reader, pl plane) (*Plan, error) {
	p := &Plan{}
	err := ScanLines(r, planePkg[pl], func(fields []string) error {
		if fields[0] == "at" {
			return p.parseTimed(fields, pl)
		}
		return p.parseRule(fields, pl)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ScanLines is the line scanner of the repo's text specs (fault plans,
// overload policies): it strips `#` comments, splits each line into
// fields, skips blank lines and hands the rest to fn. An error from fn
// comes back as "<prefix>: line N: <err>" with the 1-based line number,
// a read error as "<prefix>: <err>".
func ScanLines(r io.Reader, prefix string, fn func(fields []string) error) error {
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
		if err := fn(fields); err != nil {
			return fmt.Errorf("%s: line %d: %w", prefix, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return nil
}

// errOffPlane is the strictness error: the directive exists, but the
// plane this plan is parsed for cannot execute it.
var errOffPlane = errors.New("cannot be executed on this plane")

func (p *Plan) parseRule(fields []string, pl plane) error {
	action := fields[0]
	d, ok := directives[action]
	if !ok || !d.rule {
		return fmt.Errorf("unknown directive %q", action)
	}
	if d.planes&pl == 0 {
		return fmt.Errorf("%s %w", action, errOffPlane)
	}
	r := rule{Action: action}
	// Optional trailing `on <link>` filter.
	if n := len(fields); n >= 2 && fields[n-2] == "on" {
		r.Link = fields[n-1]
		fields = fields[:n-2]
	}
	want := 3
	if d.seconds {
		want = 4
	}
	if len(fields) != want {
		return fmt.Errorf("%s needs %d arguments, got %d", action, want-1, len(fields)-1)
	}
	r.Proto = fields[1]
	switch r.Proto {
	case "signal", "maxmin", "any":
	default:
		return fmt.Errorf("unknown protocol %q (want signal, maxmin, or any)", r.Proto)
	}
	prob, err := ParseFinite(fields[2])
	if err != nil {
		return fmt.Errorf("bad probability %q: %w", fields[2], err)
	}
	if prob < 0 || prob > 1 {
		return fmt.Errorf("probability %v outside [0,1]", prob)
	}
	r.Prob = prob
	if d.seconds {
		s, err := ParseFinite(fields[3])
		if err != nil {
			return fmt.Errorf("bad %s duration %q: %w", action, fields[3], err)
		}
		if s < 0 {
			return fmt.Errorf("%s duration %v must be non-negative", action, s)
		}
		r.Delay = s
	}
	p.Rules = append(p.Rules, r)
	return nil
}

func (p *Plan) parseTimed(fields []string, pl plane) error {
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
	f := Timed{At: at, Action: fields[2]}
	d, ok := directives[f.Action]
	if !ok || d.rule {
		return fmt.Errorf("unknown fault action %q", f.Action)
	}
	if d.planes&pl == 0 {
		return fmt.Errorf("%s %w", f.Action, errOffPlane)
	}
	rest := fields[3:]
	if d.target {
		if len(rest) == 0 {
			return fmt.Errorf("%s needs a target", f.Action)
		}
		f.Target = rest[0]
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if !d.dur || len(rest) != 2 || rest[0] != "for" {
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
	if d.durMust && f.For <= 0 {
		return fmt.Errorf("%s needs `for <duration>`", f.Action)
	}
	p.Timed = append(p.Timed, f)
	return nil
}

// ParseFinite parses a float64 and rejects NaN and ±Inf (the simulator
// clock cannot absorb them). Every text spec in the repo parses its
// numbers through it.
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
