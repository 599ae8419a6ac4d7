package adapt

import (
	"fmt"
	"reflect"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// star builds a host behind one switch with three cells, each a 5 Mb/s
// wired hop to its base station and a 1.6 Mb/s wireless hop to its air
// node, and returns it with the host-to-air route of each cell: every
// route shares the host's uplink, so each one's changes reach the others.
func star(t *testing.T) (*topology.Backbone, []topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	add := func(id topology.NodeID) {
		if _, err := b.AddNode(topology.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(l topology.Link) {
		if err := b.AddDuplex(l); err != nil {
			t.Fatal(err)
		}
	}
	add("host")
	add("sw")
	link(topology.Link{From: "host", To: "sw", Capacity: 10e6, PropDelay: 1e-3})
	var routes []topology.Route
	for i := range 3 {
		bs, air := topology.NodeID(fmt.Sprintf("bs%d", i)), topology.NodeID(fmt.Sprintf("air%d", i))
		add(bs)
		add(air)
		link(topology.Link{From: "sw", To: bs, Capacity: 5e6, PropDelay: 1e-3})
		link(topology.Link{From: bs, To: air, Capacity: 1.6e6, Wireless: true})
		r, err := b.ShortestPath("host", air)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, r)
	}
	return b, routes
}

// lockstepSide is one adaptation layer with its own simulator, ledger
// and admission controller, and the OnRate calls it made.
type lockstepSide struct {
	sim   *des.Simulator
	ctl   *admission.Controller
	rates []string
}

func (s *lockstepSide) onRate(id string, bw float64) {
	s.rates = append(s.rates, fmt.Sprintf("%s=%v", id, bw))
}

// admit books the connection on route in the side's ledger.
func (s *lockstepSide) admit(id string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) bool {
	res, err := s.ctl.Admit(admission.Test{
		ConnID:   id,
		Req:      qos.Request{Bandwidth: bounds, Delay: 5, Jitter: 5, Loss: 0.05, Traffic: qos.TrafficSpec{Sigma: 10e3, Rho: bounds.Min}},
		Route:    route,
		Mobility: mob,
	})
	return err == nil && res.Admitted
}

// TestRecordsMatchStringKeyedReference drives Manager, whose callers
// hold a record per connection, beside refAdapt, the string-keyed layer
// it replaced, over seeded streams of opens, handoffs, closes, mobility
// flips, degrades, restores, wireless capacity changes and simulator
// advances (some of zero length, so sessions are in flight when the next
// call lands). A handoff releases the old path, re-admits on the new one
// and moves the connection as core does: Leave then Join against
// Unregister then Register, with a static connection moving as often as
// a mobile one. After every step each connection's allocation and
// degrade state, the protocol's whole instance (every link's capacity,
// every session's path and demand), its committed rates, the ledger's
// rows and the OnRate calls made so far must be equal, compared with ==.
// The streams must move static and mobile connections, degrade and
// restore some, and commit rates, or the comparison shows nothing.
func TestRecordsMatchStringKeyedReference(t *testing.T) {
	var n lockstepCounts
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { lockstep(t, seed, 400, &n) })
	}
	if n.staticMoves == 0 || n.mobileMoves == 0 || n.degrades == 0 || n.restores == 0 || n.rates == 0 {
		t.Fatalf("the streams left a path unexercised: %+v", n)
	}
}

// lockstepCounts tallies what the streams exercised.
type lockstepCounts struct {
	staticMoves, mobileMoves, degrades, restores, rates int
}

func lockstep(t *testing.T, seed int64, steps int, n *lockstepCounts) {
	rng := randx.New(seed)
	b, routes := star(t)
	opts := maxmin.ProtocolOptions{Refined: rng.Bernoulli(0.5)}
	if rng.Bernoulli(0.3) {
		opts.ReadvertisePeriod = 0.5
	}
	side := func() *lockstepSide {
		lg := admission.NewLedger(b)
		return &lockstepSide{sim: des.New(), ctl: admission.NewController(lg)}
	}
	got, want := side(), side()
	mgr, err := NewManager(got.sim, got.ctl.Ledger, opts)
	if err != nil {
		t.Fatal(err)
	}
	mgr.OnRate = got.onRate
	ref, err := newRefAdapt(want.sim, want.ctl.Ledger, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.OnRate = want.onRate

	type conn struct {
		rec    *Conn
		route  topology.Route
		bounds qos.Bounds
	}
	live := map[string]*conn{}
	ids := make([]string, 10) // "c10" would sort before "c2": IDs stay one digit
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	mobility := func() qos.Mobility {
		if rng.Bernoulli(0.5) {
			return qos.Static
		}
		return qos.Mobile
	}
	// admit books on both ledgers, which must agree.
	admit := func(step int, id string, route topology.Route, bounds qos.Bounds, mob qos.Mobility) bool {
		ok := got.admit(id, route, bounds, mob)
		if ok != want.admit(id, route, bounds, mob) {
			t.Fatalf("seed %d step %d: the two ledgers disagree on admitting %s", seed, step, id)
		}
		return ok
	}
	release := func(id string, route topology.Route) {
		got.ctl.Ledger.Release(id, route)
		want.ctl.Ledger.Release(id, route)
	}
	closeConn := func(id string) {
		mgr.Close(live[id].rec)
		ref.Unregister(id)
		delete(live, id)
	}

	now := 0.0
	for step := range steps {
		id := ids[rng.Intn(len(ids))]
		c := live[id]
		switch op := rng.Intn(8); {
		case c == nil && op <= 2: // open
			route := routes[rng.Intn(len(routes))]
			lo := 50e3 * float64(1+rng.Intn(4))
			bounds := qos.Bounds{Min: lo, Max: lo + []float64{0, 300e3, 1e6}[rng.Intn(3)]}
			mob := mobility()
			if !admit(step, id, route, bounds, mob) {
				break
			}
			rec, err := mgr.Open(id, route, bounds, mob)
			if rerr := ref.Register(id, route, bounds, mob); (err == nil) != (rerr == nil) {
				t.Fatalf("seed %d step %d: Open(%s) = %v, reference %v", seed, step, id, err, rerr)
			}
			live[id] = &conn{rec: rec, route: route, bounds: bounds}
		case c == nil:
		case op <= 2: // handoff
			release(id, c.route)
			to := routes[rng.Intn(len(routes))]
			mob := mobility()
			if !admit(step, id, to, c.bounds, qos.Mobile) {
				closeConn(id) // dropped
				break
			}
			if _, in := mgr.Alloc.Rates()[id]; in { // a static connection, in a session
				n.staticMoves++
			} else {
				n.mobileMoves++
			}
			mgr.Leave(c.rec)
			ref.Unregister(id)
			c.route = to
			err := mgr.Join(c.rec, to, c.bounds, mob)
			if rerr := ref.Register(id, to, c.bounds, mob); (err == nil) != (rerr == nil) {
				t.Fatalf("seed %d step %d: Join(%s) = %v, reference %v", seed, step, id, err, rerr)
			}
		case op == 3:
			release(id, c.route)
			closeConn(id)
		case op == 4:
			mob := mobility()
			err := mgr.SetMobility(c.rec, mob)
			if rerr := ref.SetMobility(id, mob); (err == nil) != (rerr == nil) {
				t.Fatalf("seed %d step %d: SetMobility(%s) = %v, reference %v", seed, step, id, err, rerr)
			}
		case op == 5:
			g, w := mgr.Degrade(c.rec), ref.Degrade(id)
			if g != w {
				t.Fatalf("seed %d step %d: Degrade(%s) = %v, reference %v", seed, step, id, g, w)
			}
			if g {
				n.degrades++
			}
		case op == 6:
			g, w := mgr.Restore(c.rec), ref.Restore(id)
			if g != w {
				t.Fatalf("seed %d step %d: Restore(%s) = %v, reference %v", seed, step, id, g, w)
			}
			if g {
				n.restores++
			}
		default: // a wireless capacity change
			wl := routes[rng.Intn(len(routes))].Links[2].ID
			capacity := 0.4e6 + rng.Float64()*1.6e6
			err := mgr.CapacityChanged(wl, capacity)
			if rerr := ref.CapacityChanged(wl, capacity); (err == nil) != (rerr == nil) {
				t.Fatalf("seed %d step %d: CapacityChanged(%s) = %v, reference %v", seed, step, wl, err, rerr)
			}
		}
		if rng.Bernoulli(0.7) {
			now += rng.Float64() * 0.02
		}
		if err := got.sim.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		if err := want.sim.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		compareLockstep(t, fmt.Sprintf("seed %d step %d", seed, step), mgr, ref, got, want, ids)
	}
	n.rates += len(got.rates)
}

// compareLockstep fails unless the two sides hold the same state.
func compareLockstep(t *testing.T, at string, mgr *Manager, ref *refAdapt, got, want *lockstepSide, ids []string) {
	t.Helper()
	for _, id := range ids {
		g, gok := mgr.conns[id]
		w, wok := ref.conns[id]
		if gok != wok || gok && (g.degraded != w.degraded || g.static != (w.mobility == qos.Static)) {
			t.Fatalf("%s: record %s = %+v (open %v), reference %+v (open %v)", at, id, g, gok, w, wok)
		}
		for _, ls := range got.ctl.Ledger.Links() {
			g, gok := ls.Alloc(id)
			w, wok := want.ctl.Ledger.Link(ls.Link.ID).Alloc(id)
			if g != w || gok != wok {
				t.Fatalf("%s: ledger row %s on %s = %+v, reference %+v", at, id, ls.Link.ID, g, w)
			}
		}
	}
	if g, w := mgr.Alloc.Problem(), ref.Alloc.Problem(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: protocol instance\n%+v\nreference\n%+v", at, g, w)
	}
	if g, w := mgr.Alloc.Rates(), ref.Alloc.Rates(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: committed rates %v, reference %v", at, g, w)
	}
	if g, w := mgr.Alloc.Stats(), ref.Alloc.Stats(); g != w {
		t.Fatalf("%s: control work %+v, reference %+v", at, g, w)
	}
	if !reflect.DeepEqual(got.rates, want.rates) {
		t.Fatalf("%s: OnRate calls\n%v\nreference\n%v", at, got.rates, want.rates)
	}
}
