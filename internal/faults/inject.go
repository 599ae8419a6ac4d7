package faults

import (
	"fmt"

	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// Driver executes component faults against the integrated system. The
// integration layer (core.Manager) implements it; keeping it an
// interface here lets faults stay ignorant of every protocol package.
type Driver interface {
	// FailLink marks a backbone link down, terminating connections
	// routed over it.
	FailLink(link string) error
	// RestoreLink brings a failed link back and re-advertises its
	// excess capacity.
	RestoreLink(link string) error
	// FailCell takes a cell's air interface out of service.
	FailCell(cell string) error
	// RestoreCell returns a failed cell to service.
	RestoreCell(cell string) error
	// CrashZone crashes a zone's profile server with state loss; the
	// server warm-restarts empty.
	CrashZone(zone string) error
	// Blackout forces a cell's wireless channel to its worst level for
	// the given duration.
	Blackout(cell string, duration float64) error
	// CrashSignaling crashes the signaling plane, abandoning in-flight
	// setup sessions without releasing their tentative holds.
	CrashSignaling() error
}

// seedSalt decorrelates the injector's RNG from the run's other streams
// (manager, mobility) derived from the same master seed.
const seedSalt = 0x6661756c7473 // "faults"

// Verdict is the rule walk's decision for one message or frame. The zero
// value delivers it untouched.
type Verdict struct {
	// Drop suppresses the message entirely; the sending protocol sees a
	// loss and runs its own retransmission machinery.
	Drop bool
	// Dup delivers it a second time right after the first (the
	// protocols' handlers are idempotent and wire delivery is mirrored,
	// not interpreted, so a duplicate has no state effect).
	Dup bool
	// Delay is extra latency reported to the sending protocol.
	Delay float64
	// Reorder, when positive, defers a frame's fabric delivery by this
	// much while the protocol proceeds undelayed — frames sent later
	// overtake it, which is what a real reordering network does.
	Reorder float64
}

// Walker evaluates a plan's rules against messages: the one rule walk
// both planes' injectors embed. All randomness comes from one RNG seeded
// by the front-end (master seed XOR its salt), so identical (plan, seed)
// pairs decide identically. A walker over a nil or rule-less plan
// decides without drawing and without allocating.
type Walker struct {
	plan *Plan
	rng  *randx.Rand

	// Drops, Dups, Delays, Reorders count rule firings.
	Drops, Dups, Delays, Reorders int
}

// NewWalker builds a walker over the plan's rules.
func NewWalker(plan *Plan, seed int64) Walker {
	return Walker{plan: plan, rng: randx.New(seed)}
}

// Walk decides the fate of one message of the protocol family proto
// crossing link (empty where the plane has no link-addressable
// transport). Rules are evaluated in plan order: the protocol filter,
// the link filter, then one draw per matching rule. A drop that fires
// wins immediately; dup, delay and reorder compose (delays and reorder
// deferrals accumulate). Each firing is counted and reported to fired
// when it is non-nil.
func (w *Walker) Walk(proto, link string, fired func(Rule)) Verdict {
	var v Verdict
	if w.plan == nil {
		return v
	}
	for _, r := range w.plan.Rules {
		if r.Proto != "any" && r.Proto != proto {
			continue
		}
		if r.Link != "" && r.Link != link {
			continue
		}
		if !w.rng.Bernoulli(r.Prob) {
			continue
		}
		switch r.Action {
		case "drop":
			w.Drops++
			v.Drop = true
		case "dup":
			w.Dups++
			v.Dup = true
		case "delay":
			w.Delays++
			v.Delay += r.Delay
		case "reorder":
			w.Reorders++
			v.Reorder += r.Delay
		}
		if fired != nil {
			fired(r)
		}
		if v.Drop {
			return v
		}
	}
	return v
}

// Injector executes a Plan on the simulated plane: its Deliver* methods
// satisfy the delivery hooks of internal/signal and internal/maxmin
// structurally, and Arm schedules the plan's timed component faults on
// the clock. The simulation is single-threaded, so identical (plan,
// seed) pairs inject identically. An empty plan draws nothing and
// perturbs nothing.
type Injector struct {
	Walker
	bus *eventbus.Bus

	// Components counts timed faults executed (restorations included).
	Components int
	// Errors collects driver failures (unknown targets, etc.); the
	// schedule keeps running.
	Errors []string
}

// NewInjector builds an injector for the plan. A nil bus is allowed
// (faults fire silently); a nil or empty plan yields an injector whose
// hooks never draw.
func NewInjector(plan *Plan, seed int64, bus *eventbus.Bus) *Injector {
	return &Injector{Walker: NewWalker(plan, seed^seedSalt), bus: bus}
}

// DeliverSignal is the signal.Options.Deliver hook: it decides the fate
// of one setup-protocol control message.
func (in *Injector) DeliverSignal(conn string, hop int) (drop bool, delay float64) {
	return in.deliver("signal", conn, hop)
}

// DeliverMaxmin is the maxmin.ProtocolOptions.Deliver hook: it decides
// the fate of one ADVERTISE (update=false) or UPDATE (update=true)
// packet hop.
func (in *Injector) DeliverMaxmin(conn string, hop int, update bool) (drop bool, delay float64) {
	return in.deliver("maxmin", conn, hop)
}

// deliver walks the rules for one message and publishes each firing. A
// dup is counted and published only — the protocols' handlers are
// idempotent, so a duplicate has no state effect.
func (in *Injector) deliver(proto, conn string, hop int) (bool, float64) {
	if in == nil {
		return false, 0
	}
	v := in.Walk(proto, "", func(r Rule) {
		eventbus.Pub(in.bus, eventbus.FaultMessage{Proto: proto, Action: r.Action, Conn: conn, Hop: hop, Delay: r.Delay})
	})
	return v.Drop, v.Delay
}

// Arm schedules every timed fault of the plan, and the restoration of
// each that has a duration, on the clock; fault times count from the
// moment of the call. Call once, before the simulation runs.
func (in *Injector) Arm(clk clock.Clock, d Driver) {
	if in == nil || in.plan == nil || d == nil {
		return
	}
	for _, f := range in.plan.Events() {
		clk.PostAfter(f.At, func() { in.apply(f, d) })
	}
}

// apply publishes the fault event and executes it through the driver.
func (in *Injector) apply(f Timed, d Driver) {
	in.Components++
	eventbus.Pub(in.bus, eventbus.FaultComponent{Action: f.Action, Target: f.Target, For: f.For})
	var err error
	switch f.Action {
	case "link-down":
		err = d.FailLink(f.Target)
	case "link-up":
		err = d.RestoreLink(f.Target)
	case "cell-out":
		err = d.FailCell(f.Target)
	case "cell-restore":
		err = d.RestoreCell(f.Target)
	case "crash-zone":
		err = d.CrashZone(f.Target)
	case "blackout":
		err = d.Blackout(f.Target, f.For)
	case "crash-signaling":
		err = d.CrashSignaling()
	default:
		err = fmt.Errorf("faults: unknown action %q", f.Action)
	}
	if err != nil {
		in.Errors = append(in.Errors, fmt.Sprintf("t=%g %s %s: %v", f.At, f.Action, f.Target, err))
	}
}
