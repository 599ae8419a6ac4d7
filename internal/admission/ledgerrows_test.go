package admission

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"armnet/internal/qos"
	"armnet/internal/raceflag"
	"armnet/internal/randx"
	"armnet/internal/sched"
	"armnet/internal/sortx"
	"armnet/internal/topology"
)

// mapLink is the reference the ledger rows are checked against: a link's
// allocations as the map they used to be, sorted into ID order on every
// read, with every derived quantity walking the link once per sum.
type mapLink struct {
	capacity, bufferCapacity, advance, poolFraction float64
	down                                            bool
	allocs                                          map[string]*Alloc
}

func (m *mapLink) sumMin() float64 {
	t := 0.0
	for _, id := range sortx.Keys(m.allocs) {
		t += m.allocs[id].Min
	}
	return t
}

func (m *mapLink) sumCur() float64 {
	t := 0.0
	for _, id := range sortx.Keys(m.allocs) {
		t += m.allocs[id].Cur
	}
	return t
}

func (m *mapLink) sumBuffer() float64 {
	t := 0.0
	for _, id := range sortx.Keys(m.allocs) {
		t += m.allocs[id].Buffer
	}
	return t
}

func (m *mapLink) excessAvailable() float64 {
	if m.down {
		return 0
	}
	return m.capacity - m.advance - m.sumMin()
}

func (m *mapLink) availableFor(kind Kind) float64 {
	if m.down {
		return 0
	}
	switch kind {
	case KindHandoff, KindPoolClaim:
		return m.capacity - m.sumMin()
	default:
		return m.capacity - m.advance - m.poolFraction*m.capacity - m.sumMin()
	}
}

type mapLedger map[topology.LinkID]*mapLink

// admit is Table 2 over the reference ledger for a WFQ test whose delay,
// jitter and loss bounds never bind: the bandwidth and buffer rows of the
// forward pass, the reverse pass's clamp of the stamped rate to each
// link's unclaimed excess, and the commit.
func (ref mapLedger) admit(t Test) (reason string, failed topology.LinkID, bandwidth float64) {
	bmin, sigma := t.Req.Bandwidth.Min, t.Req.Traffic.Sigma
	for hop, l := range t.Route.Links {
		m := ref[l.ID]
		if bmin > m.availableFor(t.Kind) {
			return ReasonBandwidth, l.ID, 0
		}
		if m.sumBuffer()+sched.BufferWFQ(sigma, DefaultLMax, hop+1) > m.bufferCapacity {
			return ReasonBuffer, l.ID, 0
		}
	}
	alloc := bmin
	if t.Mobility == qos.Static {
		alloc = t.Req.Bandwidth.Clamp(bmin + t.BStamp)
	}
	for _, l := range t.Route.Links {
		m := ref[l.ID]
		if extra := alloc - bmin; extra > 0 {
			avail := m.excessAvailable() - (m.sumCur() - m.sumMin())
			if extra > avail {
				alloc = bmin + max(avail, 0)
			}
		}
	}
	for hop, l := range t.Route.Links {
		m := ref[l.ID]
		if t.Kind == KindHandoff || t.Kind == KindPoolClaim {
			m.advance -= min(bmin, m.advance)
		}
		m.allocs[t.ConnID] = &Alloc{Min: bmin, Cur: alloc, Buffer: sched.BufferWFQ(sigma, DefaultLMax, hop+1)}
	}
	return "", "", alloc
}

// checkLedgerMatchesOracle drives a Ledger and the map reference through
// the same seeded sequence of Book / Admit / Release / SetAllocation /
// SetAdvance steps (and the capacity, pool and fault knobs the reads
// depend on). After every step each link's table must be strictly
// ascending and every sum, every availability and every allocation must
// be the same float as the reference's, bit for bit.
func checkLedgerMatchesOracle(t *testing.T, seed int64, steps int) {
	rng := randx.New(seed)
	b, route := buildChain(t, 3, 2e6+rng.Float64()*2e6, 0.8e6+rng.Float64()*1.6e6)
	lg := NewLedger(b)
	ctl := NewController(lg)
	ref := mapLedger{}
	for _, ls := range lg.Links() {
		if rng.Bernoulli(0.3) { // tight enough for the buffer row to refuse
			ls.BufferCapacity = 60e3 + rng.Float64()*200e3
		}
		ref[ls.Link.ID] = &mapLink{capacity: ls.Capacity, bufferCapacity: ls.BufferCapacity, allocs: map[string]*Alloc{}}
	}
	universe := make([]string, 14) // "c10" sorts before "c2": string order, not numeric
	for i := range universe {
		universe[i] = fmt.Sprintf("c%d", i)
	}
	anyLink := func() *LinkState {
		if rng.Bernoulli(0.7) { // mostly on the route, where Admit reads
			return lg.Link(route.Links[rng.Intn(len(route.Links))].ID)
		}
		all := lg.Links()
		return all[rng.Intn(len(all))]
	}
	for step := 0; step < steps; step++ {
		id := universe[rng.Intn(len(universe))]
		ls := anyLink()
		m := ref[ls.Link.ID]
		switch op := rng.Intn(10); op {
		case 0, 1:
			bmin := 8e3 + rng.Float64()*120e3
			a := Alloc{Min: bmin, Cur: bmin * (1 + rng.Float64()), Buffer: rng.Float64() * 20e3}
			ls.Book(id, a)
			m.allocs[id] = &a
		case 2, 3, 4:
			bmin := 16e3 + rng.Float64()*240e3
			test := Test{
				ConnID: id,
				Req: qos.Request{
					Bandwidth: qos.Bounds{Min: bmin, Max: bmin * (1 + rng.Float64()*3)},
					Delay:     100, Jitter: 100, Loss: 0.5,
					Traffic: qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
				},
				Route:    route,
				Kind:     Kind(rng.Intn(3)),
				Mobility: qos.Mobile,
			}
			if rng.Bernoulli(0.5) {
				test.Mobility, test.BStamp = qos.Static, rng.Float64()*400e3
			}
			res, err := ctl.Admit(test)
			if err != nil {
				t.Fatalf("seed %d step %d: Admit: %v", seed, step, err)
			}
			reason, failed, bw := ref.admit(test)
			if res.Reason != reason || res.FailedLink != failed || res.Bandwidth != bw || res.Admitted != (reason == "") {
				t.Fatalf("seed %d step %d: Admit = (%v, %q at %q, %v), reference (%q at %q, %v)",
					seed, step, res.Admitted, res.Reason, res.FailedLink, res.Bandwidth, reason, failed, bw)
			}
		case 5, 6: // absent half the time: a no-op on both sides
			r := route
			if rng.Bernoulli(0.4) {
				r = topology.Route{Links: []*topology.Link{ls.Link}}
			}
			lg.Release(id, r)
			for _, l := range r.Links {
				delete(ref[l.ID].allocs, id)
			}
		case 7:
			cur := rng.Float64() * 300e3
			err := lg.SetAllocation(id, ls.Link.ID, cur)
			a, on := m.allocs[id]
			if on != (err == nil) || (err != nil && !errors.Is(err, ErrNoAlloc)) {
				t.Fatalf("seed %d step %d: SetAllocation(%s) = %v, on the reference link: %v", seed, step, id, err, on)
			}
			if on {
				a.Cur = max(cur, a.Min)
			}
		case 8:
			v := (rng.Float64()*1.4 - 0.2) * m.capacity // below zero and above capacity too
			if err := lg.SetAdvance(ls.Link.ID, v); err != nil {
				t.Fatal(err)
			}
			m.advance = min(max(v, 0), m.capacity)
		default:
			switch rng.Intn(3) {
			case 0:
				ls.Down = !ls.Down
				m.down = ls.Down
			case 1:
				ls.PoolFraction = rng.Float64() * 0.2
				m.poolFraction = ls.PoolFraction
			default:
				c := m.capacity * (0.8 + rng.Float64()*0.4)
				if err := lg.SetCapacity(ls.Link.ID, c); err != nil {
					t.Fatal(err)
				}
				m.capacity = c
			}
		}

		for _, ls := range lg.Links() {
			m := ref[ls.Link.ID]
			at := fmt.Sprintf("seed %d step %d link %s", seed, step, ls.Link.ID)
			if len(ls.rows) != len(ls.ids) {
				t.Fatalf("%s: %d ids, %d rows", at, len(ls.ids), len(ls.rows))
			}
			for i := 1; i < len(ls.ids); i++ {
				if ls.ids[i-1] >= ls.ids[i] {
					t.Fatalf("%s: ids not strictly ascending: %q", at, ls.ids)
				}
			}
			if got, want := ls.Conns(), sortx.Keys(m.allocs); !slices.Equal(got, want) || ls.NumConns() != len(want) {
				t.Fatalf("%s: Conns = %q (N_l = %d), reference %q", at, got, ls.NumConns(), want)
			}
			if got, want := ls.SumMin(), m.sumMin(); got != want {
				t.Fatalf("%s: SumMin = %v, reference %v", at, got, want)
			}
			if got, want := ls.SumCur(), m.sumCur(); got != want {
				t.Fatalf("%s: SumCur = %v, reference %v", at, got, want)
			}
			if got, want := ls.SumBuffer(), m.sumBuffer(); got != want {
				t.Fatalf("%s: SumBuffer = %v, reference %v", at, got, want)
			}
			if got, want := ls.ExcessAvailable(), m.excessAvailable(); got != want {
				t.Fatalf("%s: ExcessAvailable = %v, reference %v", at, got, want)
			}
			if got, want := ls.unclaimedExcess(), m.excessAvailable()-(m.sumCur()-m.sumMin()); got != want {
				t.Fatalf("%s: unclaimedExcess = %v, reference %v", at, got, want)
			}
			for kind := KindNew; kind <= KindPoolClaim; kind++ {
				if got, want := ls.availableFor(kind), m.availableFor(kind); got != want {
					t.Fatalf("%s: availableFor(%s) = %v, reference %v", at, kind, got, want)
				}
			}
			if ls.AdvanceReserved != m.advance {
				t.Fatalf("%s: b_resv = %v, reference %v", at, ls.AdvanceReserved, m.advance)
			}
			for _, id := range universe {
				got, ok := ls.Alloc(id)
				want, on := m.allocs[id]
				if ok != on || (on && got != *want) {
					t.Fatalf("%s: Alloc(%s) = %+v, %v; reference %+v, %v", at, id, got, ok, want, on)
				}
			}
		}
	}
}

func TestLedgerRowsMatchMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkLedgerMatchesOracle(t, seed, 300)
	}
}

func FuzzLedgerRowsMatchMapOracle(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(-9), uint16(300))
	f.Add(int64(20260929), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		checkLedgerMatchesOracle(t, seed, int(steps%2048))
	})
}

// loadedRig is the bench rig with perLink booked connections on every
// link of the route.
func loadedRig(t *testing.T, perLink int) (*Controller, topology.Route) {
	b, route := buildChain(t, 3, 100e6, 100e6)
	lg := NewLedger(b)
	for _, l := range route.Links {
		for i := 0; i < perLink; i++ {
			lg.Link(l.ID).Book(fmt.Sprintf("c%d", i), Alloc{Min: 8e3, Cur: 8e3, Buffer: 2e3})
		}
	}
	return NewController(lg), route
}

// TestAdmitAllocsIndependentOfLinkLoad pins what the ordered rows and the
// controller's scratch bought: the round trip reads every link from the
// state it holds, walks it through per-hop slices the controller reuses
// and commits into rows that are already there, so an Admit and the
// Release that undoes it allocate the returned Hops and nothing per link
// or per connection sharing it.
func TestAdmitAllocsIndependentOfLinkLoad(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	allocs := func(perLink int) float64 {
		ctl, route := loadedRig(t, perLink)
		test := Test{ConnID: "probe", Req: benchReq(), Route: route, Mobility: qos.Mobile}
		return testing.AllocsPerRun(200, func() {
			if res, err := ctl.Admit(test); err != nil || !res.Admitted {
				t.Fatalf("admit failed: %v %v", err, res.Reason)
			}
			ctl.Ledger.Release("probe", route)
		})
	}
	if light, heavy := allocs(4), allocs(64); light != 1 || heavy != 1 {
		t.Fatalf("Admit+Release allocates %v objects with 4 connections per link and %v with 64, want 1 (the Hops) at both", light, heavy)
	}
}

func TestLedgerReadsAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	ctl, route := loadedRig(t, 64)
	ls := ctl.Ledger.Link(route.Links[0].ID)
	var sink float64
	for name, read := range map[string]func(){
		"SumMin":          func() { sink += ls.SumMin() },
		"SumBuffer":       func() { sink += ls.SumBuffer() },
		"ExcessAvailable": func() { sink += ls.ExcessAvailable() },
		"availableFor":    func() { sink += ls.availableFor(KindNew) + ls.availableFor(KindHandoff) },
		"unclaimedExcess": func() { sink += ls.unclaimedExcess() },
	} {
		if got := testing.AllocsPerRun(1000, read); got != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, got)
		}
	}
}
