package testnet

import (
	"fmt"
	"math/rand"
	"testing"

	"armnet/internal/faults"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// refRoute is the hop registry the transports resolved every frame
// through before the protocols named the link in their delivery hooks,
// kept as the oracle for those hooks. It re-derives both protocols' hop
// conventions from the registered route:
//
//   - signal: forward hops 0..n-1 cross route link i; the commit
//     confirmation's reverse hops n..2n-1 cross link 2n-1-hop.
//   - maxmin ADVERTISE: a two-pass out-and-back sweep over the
//     deduplicated path of length m — hop < m crosses path[hop], hop in
//     m..2m-1 crosses path[2m-1-hop].
//   - maxmin UPDATE: one forward pass, hop i crosses path[i].
//
// forwardReturn is the mutation switch: it walks the ADVERTISE return
// leg forward (path[hop-m]), and the oracle must notice.
type refRoute struct {
	signal        []topology.LinkID
	path          []topology.LinkID
	forwardReturn bool
}

// newRefRoute registers a route: its signal links in route order and
// the maxmin path with repeats dropped, as Protocol.AddConn dedups it.
func newRefRoute(rt topology.Route, forwardReturn bool) *refRoute {
	rec := &refRoute{forwardReturn: forwardReturn}
	for _, l := range rt.Links {
		rec.signal = append(rec.signal, l.ID)
		if !onPath(rec.path, l.ID) {
			rec.path = append(rec.path, l.ID)
		}
	}
	return rec
}

func onPath(path []topology.LinkID, link topology.LinkID) bool {
	for _, l := range path {
		if l == link {
			return true
		}
	}
	return false
}

// signalHop resolves signal hop i: the link crossed and whether it is a
// reverse-pass commit confirmation hop.
func (rec *refRoute) signalHop(i int) (link topology.LinkID, commit bool, ok bool) {
	n := len(rec.signal)
	switch {
	case i >= 0 && i < n:
		return rec.signal[i], false, true
	case i >= n && i < 2*n:
		return rec.signal[2*n-1-i], true, true
	}
	return "", false, false
}

// maxminHop resolves maxmin hop i of an UPDATE (update=true, forward
// pass) or an ADVERTISE sweep (out and back).
func (rec *refRoute) maxminHop(i int, update bool) (topology.LinkID, bool) {
	m := len(rec.path)
	switch {
	case i >= 0 && i < m:
		return rec.path[i], true
	case !update && i >= m && i < 2*m:
		if rec.forwardReturn {
			return rec.path[i-m], true
		}
		return rec.path[2*m-1-i], true
	}
	return "", false
}

// hopCall is one delivery-hook call reduced to what addresses its
// frame: the link, the agent owning it and the frame type.
type hopCall struct {
	link  string
	agent int
	frame wire.Type
}

// hopOracle sits between the chaos layer and the fabric and holds every
// hook call that reaches the fabric to the reference registry, resolved
// against the route the runner registered for the connection. It counts
// calls and keeps the first few divergences.
type hopOracle struct {
	transport
	r             *runner
	forwardReturn bool
	calls         int
	// unrouted counts calls the reference could not resolve at all.
	unrouted int
	diverged []string
}

func (o *hopOracle) check(conn string, hop int, got hopCall, want func(*refRoute) (topology.LinkID, wire.Type, bool)) {
	o.calls++
	rec := o.r.conns[conn]
	if rec == nil {
		o.unrouted++
		return
	}
	link, frame, ok := want(newRefRoute(rec.route, o.forwardReturn))
	if !ok {
		o.unrouted++
		return
	}
	ref := hopCall{link: string(link), agent: o.r.cluster.agent(string(link)), frame: frame}
	if got != ref && len(o.diverged) < 5 {
		o.diverged = append(o.diverged, fmt.Sprintf("%s hop %d: hook %+v, reference %+v", conn, hop, got, ref))
	}
}

func (o *hopOracle) SignalDeliver(conn string, hop int, link string, commit bool) (bool, float64) {
	frame := wire.SignalSetup{}.WireType()
	if commit {
		frame = wire.SignalCommit{}.WireType()
	}
	o.check(conn, hop, hopCall{link, o.r.cluster.agent(link), frame}, func(rec *refRoute) (topology.LinkID, wire.Type, bool) {
		l, commit, ok := rec.signalHop(hop)
		if commit {
			return l, wire.SignalCommit{}.WireType(), ok
		}
		return l, wire.SignalSetup{}.WireType(), ok
	})
	return o.transport.SignalDeliver(conn, hop, link, commit)
}

func (o *hopOracle) MaxminDeliver(conn string, hop int, link string, update bool) (bool, float64) {
	frame := wire.Advertise{}.WireType()
	if update {
		frame = wire.Update{}.WireType()
	}
	o.check(conn, hop, hopCall{link, o.r.cluster.agent(link), frame}, func(rec *refRoute) (topology.LinkID, wire.Type, bool) {
		l, ok := rec.maxminHop(hop, update)
		return l, frame, ok
	})
	return o.transport.MaxminDeliver(conn, hop, link, update)
}

// tapHook returns the runner hook installing o at time zero, before any
// script step.
func (o *hopOracle) tapHook() soakHook {
	return soakHook{at: 0, fn: func(r *runner) {
		o.r = r
		o.transport = r.faulty.inner
		r.faulty.inner = o
	}}
}

// oracleVerdict runs one scenario under an honest and a mutant oracle
// and reports the honest divergences and whether the mutant diverged.
func oracleVerdict(t *testing.T, name string, run func(extra soakHook) error) (mutantSeen bool) {
	t.Helper()
	honest, mutant := &hopOracle{}, &hopOracle{forwardReturn: true}
	if err := run(honest.tapHook()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := run(mutant.tapHook()); err != nil {
		t.Fatalf("%s (mutant): %v", name, err)
	}
	if honest.calls == 0 {
		t.Fatalf("%s: no hook call reached the fabric", name)
	}
	if honest.unrouted != 0 || len(honest.diverged) != 0 {
		t.Errorf("%s: %d of %d hook calls unrouted by the reference; divergences: %v", name, honest.unrouted, honest.calls, honest.diverged)
	}
	return len(mutant.diverged) > 0
}

// genScript is a random setup/handoff/close workload on the campus:
// handoffShare of the steps after the first setups re-home a live
// connection, the rest split between new setups and closes.
func genScript(rng *rand.Rand, steps int, handoffShare float64) []Step {
	cells := []topology.CellID{"off-1", "off-2", "off-3", "cor-w1", "cor-w2", "cor-e1", "meet", "cafe", "lounge"}
	var out []Step
	var live []string
	at := 0.05
	for i := 0; i < steps; i++ {
		at += 0.02 + rng.Float64()*0.08
		cell := cells[rng.Intn(len(cells))]
		min := 100e3 + float64(rng.Intn(4))*50e3
		switch u := rng.Float64(); {
		case len(live) > 0 && u < handoffShare:
			out = append(out, Step{At: at, Op: OpHandoff, Conn: live[rng.Intn(len(live))], Cell: cell, Host: rng.Intn(2), Min: min, Max: min + 400e3})
		case len(live) > 2 && u < handoffShare+(1-handoffShare)/3:
			k := rng.Intn(len(live))
			out = append(out, Step{At: at, Op: OpClose, Conn: live[k]})
			live = append(live[:k], live[k+1:]...)
		default:
			conn := fmt.Sprintf("g%d:0", i)
			out = append(out, Step{At: at, Op: OpSetup, Conn: conn, Cell: cell, Host: rng.Intn(2), Min: min, Max: min + float64(1+rng.Intn(5))*200e3})
			live = append(live, conn)
		}
	}
	return out
}

// TestHookLinksMatchReferenceRouting holds every delivery-hook call to
// the hop registry the transports used to resolve frames through: the
// link the protocol names, the agent owning it and the frame type equal
// the reference's, on the loopback campus script, the default soak and
// 24 generated scripts (one of them handoff-heavy). A reference that
// walks the ADVERTISE return leg forward must diverge.
func TestHookLinksMatchReferenceRouting(t *testing.T) {
	mutantSeen := false
	loopback := func(script []Step) func(soakHook) error {
		return func(tap soakHook) error {
			horizon := script[len(script)-1].At + defaultHorizon
			res, err := Run(Config{Mode: ModeLoopback, Script: script, Horizon: horizon, Faults: &faults.Plan{}, Lenient: true, hooks: []soakHook{tap}})
			if err == nil && len(res.Violations) > 0 {
				err = fmt.Errorf("violations: %v", res.Violations)
			}
			return err
		}
	}
	mutantSeen = oracleVerdict(t, "campus script", loopback(CampusScript())) || mutantSeen
	mutantSeen = oracleVerdict(t, "default soak", func(tap soakHook) error {
		res, err := runSoak(soakGateConfig(), tap)
		if err == nil && len(res.Violations) > 0 {
			err = fmt.Errorf("violations: %v", res.Violations)
		}
		return err
	}) || mutantSeen
	for seed := int64(1); seed <= 24; seed++ {
		share := 0.2
		if seed == 1 {
			share = 0.7 // handoff-heavy
		}
		script := genScript(rand.New(rand.NewSource(seed)), 40, share)
		mutantSeen = oracleVerdict(t, fmt.Sprintf("generated script %d", seed), loopback(script)) || mutantSeen
	}
	if !mutantSeen {
		t.Fatal("the forward-return mutant matched every hook call: the oracle is blind to the ADVERTISE return leg")
	}
}
