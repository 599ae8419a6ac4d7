package faults

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
)

// The two rule loops Walker.Walk replaced stay here as test-only
// references: refSim is internal/faults' Injector.deliver and refWire is
// internal/netfaults' Injector.Frame, bodies verbatim from the commit
// before the merge. composeDrop is the mutation switch — it turns
// "a drop that fires wins immediately" into "a drop composes", and the
// oracle tests below must notice.

type refSim struct {
	plan *Plan
	rng  *randx.Rand
	bus  *eventbus.Bus

	Drops, Dups, Delays int
	composeDrop         bool
}

func (in *refSim) referenceDeliver(proto, conn string, hop int) (bool, float64) {
	if in == nil || in.plan == nil {
		return false, 0
	}
	delay := 0.0
	dropped := false
	for _, r := range in.plan.Rules {
		if r.Proto != "any" && r.Proto != proto {
			continue
		}
		if !in.rng.Bernoulli(r.Prob) {
			continue
		}
		switch r.Action {
		case "drop":
			in.Drops++
			eventbus.Pub(in.bus, eventbus.FaultMessage{Proto: proto, Action: "drop", Conn: conn, Hop: hop})
			if !in.composeDrop {
				return true, delay
			}
			dropped = true
		case "dup":
			in.Dups++
			eventbus.Pub(in.bus, eventbus.FaultMessage{Proto: proto, Action: "dup", Conn: conn, Hop: hop})
		case "delay":
			in.Delays++
			delay += r.Delay
			eventbus.Pub(in.bus, eventbus.FaultMessage{Proto: proto, Action: "delay", Conn: conn, Hop: hop, Delay: r.Delay})
		}
	}
	return dropped, delay
}

type refWire struct {
	plan *Plan
	rng  *randx.Rand

	Drops, Dups, Delays, Reorders int
	composeDrop                   bool
}

func (in *refWire) referenceFrame(proto, link string) verdict {
	var v verdict
	if in == nil || in.plan == nil || len(in.plan.Rules) == 0 {
		return v
	}
	for _, r := range in.plan.Rules {
		if r.Proto != "any" && r.Proto != proto {
			continue
		}
		if r.Link != "" && r.Link != link {
			continue
		}
		if !in.rng.Bernoulli(r.Prob) {
			continue
		}
		switch r.Action {
		case "drop":
			in.Drops++
			v.Drop = true
			if !in.composeDrop {
				return v
			}
		case "dup":
			in.Dups++
			v.Dup = true
		case "delay":
			in.Delays++
			v.Delay += r.Delay
		case "reorder":
			in.Reorders++
			v.Reorder += r.Delay
		}
	}
	return v
}

var oracleLinks = []string{"l0", "l1", "l2"}

// randomPlan draws 0–6 rules the parser of the given plane would accept:
// every action the plane executes, probabilities including exactly 0 and
// 1, and on the wire plane `on <link>` filters on about half the rules.
func randomPlan(rng *randx.Rand, wire bool) *Plan {
	actions := []string{"drop", "dup", "delay"}
	if wire {
		actions = append(actions, "reorder")
	}
	protos := []string{"signal", "maxmin", "any"}
	probs := []float64{0, 1, 0.05, 0.3, 0.5, 0.9}
	p := &Plan{}
	for n := rng.Intn(7); n > 0; n-- {
		r := rule{
			Proto:  protos[rng.Intn(len(protos))],
			Action: actions[rng.Intn(len(actions))],
			Prob:   probs[rng.Intn(len(probs))],
		}
		if directives[r.Action].seconds {
			r.Delay = float64(1+rng.Intn(9)) / 1000
		}
		if wire && rng.Intn(2) == 0 {
			r.Link = oracleLinks[rng.Intn(len(oracleLinks))]
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// simTranscript drives one sim-plane decider over 300 messages and
// renders everything observable: each (drop, delay) result, every
// published FaultMessage in order, the counters, and the RNG's next
// draw (equal next draws ⇔ equal draw counts on equal seeds).
func simTranscript(plan *Plan, seed int64, build func(*Plan, *randx.Rand, *eventbus.Bus) (deliver func(string, string, int) (bool, float64), counters func() [3]int)) string {
	var b strings.Builder
	bus := eventbus.New(des.New())
	bus.Subscribe(func(r eventbus.Record) {
		fmt.Fprintf(&b, "  pub %+v\n", r.Event.(eventbus.FaultMessage))
	}, eventbus.FaultMessage{}.Kind())
	rng := randx.New(seed ^ seedSalt)
	deliver, counters := build(plan, rng, bus)
	traffic := randx.New(seed)
	for i := 0; i < 300; i++ {
		proto := []string{"signal", "maxmin"}[traffic.Intn(2)]
		drop, delay := deliver(proto, fmt.Sprintf("c%d", traffic.Intn(5)), traffic.Intn(4))
		fmt.Fprintf(&b, "%s -> %v %v\n", proto, drop, delay)
	}
	fmt.Fprintf(&b, "counters %v next %v\n", counters(), rng.Float64())
	return b.String()
}

func sharedSim(plan *Plan, rng *randx.Rand, bus *eventbus.Bus) (func(string, string, int) (bool, float64), func() [3]int) {
	in := &Injector{Walker: Walker{plan: plan, rng: rng}, bus: bus}
	deliver := func(proto, conn string, hop int) (bool, float64) { return in.deliver(proto, conn, hop, "") }
	return deliver, func() [3]int { return [3]int{in.Drops, in.Dups, in.Delays} }
}

func referenceSim(mutate bool) func(*Plan, *randx.Rand, *eventbus.Bus) (func(string, string, int) (bool, float64), func() [3]int) {
	return func(plan *Plan, rng *randx.Rand, bus *eventbus.Bus) (func(string, string, int) (bool, float64), func() [3]int) {
		in := &refSim{plan: plan, rng: rng, bus: bus, composeDrop: mutate}
		return in.referenceDeliver, func() [3]int { return [3]int{in.Drops, in.Dups, in.Delays} }
	}
}

// TestDeliverMatchesReference holds the shared walk, as the sim
// Injector drives it, to the loop it replaced: same results, same
// published FaultMessage sequence, same counters, same RNG position —
// over 60 seeds of random plans. The mutated reference must disagree
// somewhere, or the oracle could not see drop-wins.
func TestDeliverMatchesReference(t *testing.T) {
	mutantSeen := false
	for seed := int64(1); seed <= 60; seed++ {
		plan := randomPlan(randx.New(seed*7919), false)
		got := simTranscript(plan, seed, sharedSim)
		if want := simTranscript(plan, seed, referenceSim(false)); got != want {
			t.Fatalf("seed %d, plan:\n%s\nshared walk:\n%s\nreference:\n%s", seed, plan, got, want)
		}
		if simTranscript(plan, seed, referenceSim(true)) != got {
			mutantSeen = true
		}
	}
	if !mutantSeen {
		t.Fatal("drop-composes mutant matched on every seed: the oracle is blind to drop-wins")
	}
}

// wireTranscript is simTranscript for the wire plane: frames carry a
// link, the verdict has four parts and there are four counters.
func wireTranscript(plan *Plan, seed int64, build func(*Plan, *randx.Rand) (frame func(string, string) verdict, counters func() [4]int)) string {
	var b strings.Builder
	rng := randx.New(seed ^ seedSalt)
	frame, counters := build(plan, rng)
	traffic := randx.New(seed)
	for i := 0; i < 300; i++ {
		proto := []string{"signal", "maxmin"}[traffic.Intn(2)]
		link := oracleLinks[traffic.Intn(len(oracleLinks))]
		fmt.Fprintf(&b, "%s %s -> %+v\n", proto, link, frame(proto, link))
	}
	fmt.Fprintf(&b, "counters %v next %v\n", counters(), rng.Float64())
	return b.String()
}

func referenceWire(mutate bool) func(*Plan, *randx.Rand) (func(string, string) verdict, func() [4]int) {
	return func(plan *Plan, rng *randx.Rand) (func(string, string) verdict, func() [4]int) {
		in := &refWire{plan: plan, rng: rng, composeDrop: mutate}
		return in.referenceFrame, func() [4]int { return [4]int{in.Drops, in.Dups, in.Delays, in.Reorders} }
	}
}

// TestWalkMatchesReferenceFrame is the wire-plane half: Walk with a nil
// callback (what testnet's chaos layer calls per frame) against the old Frame
// loop, with `==` on every verdict.
func TestWalkMatchesReferenceFrame(t *testing.T) {
	shared := func(plan *Plan, rng *randx.Rand) (func(string, string) verdict, func() [4]int) {
		w := &Walker{plan: plan, rng: rng}
		return func(proto, link string) verdict { return w.Walk(proto, link, nil) },
			func() [4]int { return [4]int{w.Drops, w.Dups, w.Delays, w.Reorders} }
	}
	mutantSeen := false
	for seed := int64(1); seed <= 60; seed++ {
		plan := randomPlan(randx.New(seed*104729), true)
		got := wireTranscript(plan, seed, shared)
		if want := wireTranscript(plan, seed, referenceWire(false)); got != want {
			t.Fatalf("seed %d, plan:\n%s\nshared walk:\n%s\nreference:\n%s", seed, plan, got, want)
		}
		if wireTranscript(plan, seed, referenceWire(true)) != got {
			mutantSeen = true
		}
	}
	if !mutantSeen {
		t.Fatal("drop-composes mutant matched on every seed: the oracle is blind to drop-wins")
	}
}

// TestWalkReportsEachFiring pins the callback contract: the rules
// reported are exactly the rules counted, in plan order, and a nil
// callback changes nothing else.
func TestWalkReportsEachFiring(t *testing.T) {
	plan := &Plan{Rules: []rule{
		{Proto: "any", Action: "dup", Prob: 1},
		{Proto: "maxmin", Action: "delay", Prob: 1, Delay: 0.5},
		{Proto: "any", Action: "reorder", Prob: 1, Delay: 0.25, Link: "l1"},
		{Proto: "signal", Action: "drop", Prob: 1},
		{Proto: "any", Action: "dup", Prob: 1}, // never reached by signal
	}}
	w := NewWalker(plan, 1)
	var fired []rule
	v := w.Walk("signal", "l1", func(r rule) { fired = append(fired, r) })
	if want := (verdict{Drop: true, Dup: true, Reorder: 0.25}); v != want {
		t.Fatalf("verdict %+v, want %+v", v, want)
	}
	if want := []rule{plan.Rules[0], plan.Rules[2], plan.Rules[3]}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %+v, want %+v", fired, want)
	}
	quiet := NewWalker(plan, 1)
	if got := quiet.Walk("signal", "l1", nil); got != v || quiet.Dups != w.Dups || quiet.Drops != w.Drops || quiet.Reorders != w.Reorders {
		t.Fatalf("nil callback changed the walk: %+v vs %+v", got, v)
	}
}

// The two unclamped `for`-schedulers Plan.Events replaced, reduced to
// what they handed their clock: (time, action, target), For left zero.

// referenceArm is the posting loop of the old Injector.Arm with its
// restoreAction helper: restorations for everything with a duration
// except a blackout.
func referenceArm(timed []Timed) []Timed {
	var out []Timed
	for _, f := range timed {
		out = append(out, Timed{At: f.At, Action: f.Action, Target: f.Target})
		if f.For > 0 && f.Action != "blackout" {
			restore := f.Action
			if f.Action == "link-down" {
				restore = "link-up"
			} else if f.Action == "cell-out" {
				restore = "cell-restore"
			}
			out = append(out, Timed{At: f.At + f.For, Action: restore, Target: f.Target})
		}
	}
	return out
}

// referenceArmNode is testnet's old node-fault arming loop: a partition
// always heals at At+For, a crash restarts only when it has a duration.
func referenceArmNode(timed []Timed) []Timed {
	var out []Timed
	for _, nf := range timed {
		if nf.Action == "partition" {
			out = append(out, Timed{At: nf.At, Action: "partition", Target: nf.Target}, Timed{At: nf.At + nf.For, Action: "heal", Target: nf.Target})
		} else if nf.Action == "crash" {
			out = append(out, Timed{At: nf.At, Action: "crash", Target: nf.Target})
			if nf.For > 0 {
				out = append(out, Timed{At: nf.At + nf.For, Action: "restart", Target: nf.Target})
			}
		}
	}
	return out
}

// TestEventsMatchReferenceSchedulers holds Plan.Events to those two
// (the soak's clamped scheduler is pinned next to it, in
// internal/testnet).
func TestEventsMatchReferenceSchedulers(t *testing.T) {
	cases := []struct {
		name      string
		spec      string
		parse     func(io.Reader) (*Plan, error)
		reference func([]Timed) []Timed
		want      []Timed // spelled out, so the references are checked too
	}{
		{
			name:      "sim: outage pairs, blackout has no restore event",
			spec:      "at 10 link-down l1 for 5\nat 12 cell-out c1 for 0.5\nat 3 blackout c2 for 30\nat 20 crash-zone z\nat 30 crash-signaling\nat 40 link-down l2\nat 41 link-up l2\n",
			parse:     ParsePlan,
			reference: referenceArm,
			want: []Timed{
				{At: 10, Action: "link-down", Target: "l1"}, {At: 15, Action: "link-up", Target: "l1"},
				{At: 12, Action: "cell-out", Target: "c1"}, {At: 12.5, Action: "cell-restore", Target: "c1"},
				{At: 3, Action: "blackout", Target: "c2"},
				{At: 20, Action: "crash-zone", Target: "z"}, {At: 30, Action: "crash-signaling"},
				{At: 40, Action: "link-down", Target: "l2"}, {At: 41, Action: "link-up", Target: "l2"},
			},
		},
		{
			name:      "wire: partition heals, a crash without `for` never restarts",
			spec:      "at 1 partition east for 2\nat 0.8 crash west for 2.2\nat 3 crash core\n",
			parse:     ParseWirePlan,
			reference: referenceArmNode,
			want: []Timed{
				{At: 1, Action: "partition", Target: "east"}, {At: 3, Action: "heal", Target: "east"},
				{At: 0.8, Action: "crash", Target: "west"}, {At: 0.8 + 2.2, Action: "restart", Target: "west"},
				{At: 3, Action: "crash", Target: "core"},
			},
		},
	}
	for _, tc := range cases {
		p, err := tc.parse(strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := p.Events()
		for i := range got {
			got[i].For = 0
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, tc.want)
		}
		if ref := tc.reference(p.Timed); !reflect.DeepEqual(ref, tc.want) {
			t.Errorf("%s: reference scheduler disagrees with the table: %v", tc.name, ref)
		}
	}
}
