package admission

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"armnet/internal/qos"
	"armnet/internal/raceflag"
	"armnet/internal/randx"
	"armnet/internal/sched"
	"armnet/internal/sortx"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// mapLink is the reference the ledger is checked against: a link's
// allocations as a plain map, with every derived quantity walking the
// link once per sum. Its sums are exact walks (stats.Sum), so the map's
// order does not matter and the ledger's kept totals must equal them bit
// for bit.
type mapLink struct {
	capacity, bufferCapacity, advance, poolFraction float64
	down                                            bool
	allocs                                          map[string]*Alloc
}

// sum is the exact total of one column over the link's allocations.
func (m *mapLink) sum(col func(*Alloc) float64) float64 {
	var s stats.Sum
	for _, a := range m.allocs {
		s.Add(col(a))
	}
	return s.Value()
}

func (m *mapLink) sumMin() float64    { return m.sum(func(a *Alloc) float64 { return a.Min }) }
func (m *mapLink) sumCur() float64    { return m.sum(func(a *Alloc) float64 { return a.Cur }) }
func (m *mapLink) sumBuffer() float64 { return m.sum(func(a *Alloc) float64 { return a.Buffer }) }

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
		if m.sumBuffer()+sched.BufferWFQ(sigma, lmax, hop+1) > m.bufferCapacity {
			return reasonBuffer, l.ID, 0
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
		m.allocs[t.ConnID] = &Alloc{Min: bmin, Cur: alloc, Buffer: sched.BufferWFQ(sigma, lmax, hop+1)}
	}
	return "", "", alloc
}

// checkSlots holds the slot tables to their owners: every row's holder
// is the one interned for its ID and places the row at its own slot,
// every ref of an interned holder points at a row the holder owns, and
// the interned holders are exactly the IDs holding a row or held by an
// owner — a holder nothing keeps was recycled. held lists the holds the
// test's owners took and have not dropped, by ID: each must still be the
// ID's interned holder, with that many owners.
func checkSlots(t *testing.T, at string, lg *Ledger, held map[string][]*Holder) {
	t.Helper()
	rows := 0
	for _, ls := range lg.ordered {
		for i, r := range ls.rows {
			if ref := r.h.ref(ls); lg.holders[r.h.id] != r.h || ref == nil || ref.slot != i {
				t.Fatalf("%s: row %d of %s (%s) is not placed by its holder", at, i, ls.Link.ID, r.h.id)
			}
		}
		rows += len(ls.rows)
	}
	refs := 0
	for id, h := range lg.holders {
		if h.id != id || (len(h.refs) == 0 && h.owners == 0) {
			t.Fatalf("%s: holder interned as %q names %q and holds %d rows for %d owners", at, id, h.id, len(h.refs), h.owners)
		}
		if h.owners != len(held[id]) {
			t.Fatalf("%s: holder of %q counts %d owners, %d hold it", at, id, h.owners, len(held[id]))
		}
		for _, ref := range h.refs {
			if ref.slot >= len(ref.ls.rows) || ref.ls.rows[ref.slot].h != h {
				t.Fatalf("%s: %s's ref to slot %d of %s is another's row", at, id, ref.slot, ref.ls.Link.ID)
			}
		}
		refs += len(h.refs)
	}
	if refs != rows {
		t.Fatalf("%s: holders place %d rows, the links hold %d", at, refs, rows)
	}
	for id, hs := range held {
		for _, h := range hs {
			if lg.holders[id] != h || h.id != id {
				t.Fatalf("%s: a hold on %q lost its holder (now %q)", at, id, h.id)
			}
		}
	}
}

// checkLedgerMatchesOracle drives a Ledger and the map reference through
// the same seeded sequence of Book / Admit / Release / SetAllocation /
// SetAdvance steps (and the capacity, pool and fault knobs the reads
// depend on), steps that release an ID everywhere and book another so a
// recycled holder takes the slots, and Admit / Release over a route of a
// twin backbone whose link IDs are the same, which must be unknown. Owners
// take and drop holds on IDs, and Admit and Release go through a held
// holder half the time they can, so a held ID is released to no rows and
// booked again while it keeps its holder. A Release through the holder
// frees every row it owns (off the route too, where Book put them); one
// by name frees only the rows on the route it names. After
// every step each link's Conns must list the reference's IDs in order,
// every ID's allocation and every N_l must match, every sum and every
// availability must be the same float as the reference's, bit for bit,
// and every row must be where its holder says.
func checkLedgerMatchesOracle(t *testing.T, seed int64, steps int) {
	rng := randx.New(seed)
	wired, wireless := 2e6+rng.Float64()*2e6, 0.8e6+rng.Float64()*1.6e6
	b, route := buildChain(t, 3, wired, wireless)
	_, twin := buildChain(t, 3, wired, wireless)
	lg := NewLedger(b)
	everywhere := topology.Route{Links: b.Links()}
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
	held := map[string][]*Holder{}
	// holder returns a hold on id half the time one is taken, else nil.
	holder := func(id string) *Holder {
		if hs := held[id]; len(hs) > 0 && rng.Bernoulli(0.5) {
			return hs[rng.Intn(len(hs))]
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		id := universe[rng.Intn(len(universe))]
		ls := anyLink()
		m := ref[ls.Link.ID]
		switch op := rng.Intn(14); op {
		case 0, 1:
			bmin := 8e3 + rng.Float64()*120e3
			a := Alloc{Min: bmin, Cur: bmin * (1 + rng.Float64()), Buffer: rng.Float64() * 20e3}
			if err := ls.Book(id, a); err != nil {
				t.Fatal(err)
			}
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
				Holder:   holder(id),
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
			if h := holder(id); h != nil { // every row the holder owns
				h.Release()
				for _, other := range ref {
					delete(other.allocs, id)
				}
				break
			}
			r := route // by name, a subset of the rows when id has others
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
			if on != (err == nil) || (err != nil && !errors.Is(err, errNoAlloc)) {
				t.Fatalf("seed %d step %d: SetAllocation(%s) = %v, on the reference link: %v", seed, step, id, err, on)
			}
			if on {
				a.Cur = max(cur, a.Min)
			}
		case 8:
			v := (rng.Float64()*1.4 - 0.2) * m.capacity // below zero and above capacity too
			if err := ls.SetAdvance(v); err != nil {
				t.Fatal(err)
			}
			m.advance = min(max(v, 0), m.capacity)
		case 10: // the released ID's holder is recycled for the next
			gone := universe[rng.Intn(len(universe))]
			lg.Release(gone, everywhere)
			for _, other := range ref {
				delete(other.allocs, gone)
			}
			if id != gone {
				a := Alloc{Min: 8e3, Cur: 8e3 + rng.Float64()*8e3, Buffer: rng.Float64() * 20e3}
				if err := ls.Book(id, a); err != nil {
					t.Fatal(err)
				}
				m.allocs[id] = &a
			}
		case 11: // the twin's links share these IDs but are not this ledger's
			if rng.Bernoulli(0.5) {
				lg.Release(id, twin)
				break
			}
			bmin := 8e3 + rng.Float64()*16e3
			res, err := ctl.Admit(Test{
				ConnID: id,
				Req: qos.Request{
					Bandwidth: qos.Bounds{Min: bmin, Max: bmin},
					Delay:     100, Jitter: 100, Loss: 0.5,
					Traffic: qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
				},
				Route:    twin,
				Mobility: qos.Mobile,
			})
			if !errors.Is(err, ErrUnknownLink) || res.Admitted {
				t.Fatalf("seed %d step %d: Admit over the twin's route = %+v, %v; want ErrUnknownLink", seed, step, res, err)
			}
		case 12: // an owner takes a hold
			held[id] = append(held[id], lg.Hold(id))
		case 13: // an owner drops one, if any is taken
			if hs := held[id]; len(hs) > 0 {
				k := rng.Intn(len(hs))
				hs[k].Drop()
				held[id] = slices.Delete(hs, k, k+1)
				if len(held[id]) == 0 {
					delete(held, id)
				}
			}
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
		checkSlots(t, fmt.Sprintf("seed %d step %d", seed, step), lg, held)
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

// TestLedgerRefusesNonFinite: Book and SetAllocation refuse a value that
// is not finite and leave the link as it was, so a finite value written
// afterwards reads back as the exact total of the link's allocations.
func TestLedgerRefusesNonFinite(t *testing.T) {
	b, route := buildChain(t, 1, 1e6, 1e6)
	lg := NewLedger(b)
	link := route.Links[0].ID
	ls := lg.Link(link)
	for i, cur := range []float64{0.1, 0.2, 0.3} {
		if err := ls.Book(fmt.Sprintf("c%d", i), Alloc{Min: 0.05, Cur: cur, Buffer: cur}); err != nil {
			t.Fatal(err)
		}
	}
	walk := func() (cur, buf float64) {
		var c, b stats.Sum
		for _, id := range ls.Conns() {
			a, _ := ls.Alloc(id)
			c.Add(a.Cur)
			b.Add(a.Buffer)
		}
		return c.Value(), b.Value()
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := lg.SetAllocation("c1", link, bad); err == nil {
			t.Fatalf("SetAllocation(%v) accepted", bad)
		}
		for _, a := range []Alloc{{Min: bad, Cur: 1, Buffer: 1}, {Min: 1, Cur: bad, Buffer: 1}, {Min: 1, Cur: 1, Buffer: bad}} {
			if err := ls.Book("c1", a); err == nil {
				t.Fatalf("Book(%+v) accepted", a)
			}
		}
		if a, _ := ls.Alloc("c1"); a.Cur != 0.2 || a.Buffer != 0.2 {
			t.Fatalf("refused writes changed c1 to %+v", a)
		}
	}
	if err := lg.SetAllocation("c1", link, 0.7); err != nil {
		t.Fatal(err)
	}
	lg.Release("c0", route)
	cur, buf := walk()
	if ls.SumCur() != cur || ls.SumBuffer() != buf || ls.SumMin() != 0.1 {
		t.Fatalf("totals (cur %v, buffer %v, min %v), exact walk (%v, %v, 0.1)", ls.SumCur(), ls.SumBuffer(), ls.SumMin(), cur, buf)
	}
}

// TestSetAdvanceRefusesNonFinite: NaN passes both of SetAdvance's clamps,
// and a NaN b_resv makes ExcessAvailable NaN, so the bandwidth row would
// admit everything. A value that is not finite is refused and the link is
// left as it was, so the row still refuses what does not fit.
func TestSetAdvanceRefusesNonFinite(t *testing.T) {
	b, route := buildChain(t, 2, 10e6, 1e6)
	lg := NewLedger(b)
	last := route.Links[len(route.Links)-1].ID
	if err := lg.Link(last).SetAdvance(0.1e6); err != nil {
		t.Fatal(err)
	}
	ls := lg.Link(last)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := lg.Link(last).SetAdvance(bad); err == nil {
			t.Errorf("SetAdvance(%v) accepted", bad)
		}
		if ls.AdvanceReserved != 0.1e6 || ls.ExcessAvailable() != 0.9e6 {
			t.Fatalf("after SetAdvance(%v): b_resv %v, excess %v; want 1e5 and 9e5", bad, ls.AdvanceReserved, ls.ExcessAvailable())
		}
	}
	ctl := NewController(lg)
	for i, want := range []string{"", ReasonBandwidth, ReasonBandwidth, ReasonBandwidth} {
		res, err := ctl.Admit(Test{
			ConnID: fmt.Sprintf("c%d", i),
			Req: qos.Request{
				Bandwidth: qos.Bounds{Min: 500e3, Max: 500e3},
				Delay:     100, Jitter: 100, Loss: 0.5,
				Traffic: qos.TrafficSpec{Sigma: 1e3, Rho: 500e3},
			},
			Route:    route,
			Mobility: qos.Mobile,
		})
		if err != nil || res.Reason != want || (want != "" && res.FailedLink != last) {
			t.Fatalf("connection %d: %+v, %v; want reason %q on %s", i, res, err, want, last)
		}
	}
}

// TestRouteValidOnlyOnItsBackbone: a ledger reaches a route's links by
// Link.Index and checks the link found there is the route's own, so a
// route of a second backbone with the very same link IDs is unknown to
// it. Admit over that route returns ErrUnknownLink and Release over it is
// a no-op; neither changes any state.
func TestRouteValidOnlyOnItsBackbone(t *testing.T) {
	b, route := buildChain(t, 2, 10e6, 1e6)
	_, twin := buildChain(t, 2, 10e6, 1e6)
	for i, l := range route.Links {
		if tl := twin.Links[i]; tl.ID != l.ID || tl.Index != l.Index || tl == l {
			t.Fatalf("hop %d: twin link %s (index %d), want a distinct %s (index %d)", i, tl.ID, tl.Index, l.ID, l.Index)
		}
	}
	ctl := NewController(NewLedger(b))
	test := Test{ConnID: "c", Req: benchReq(), Route: route, Mobility: qos.Mobile}
	if res, err := ctl.Admit(test); err != nil || !res.Admitted {
		t.Fatalf("admit on its own backbone: %+v, %v", res, err)
	}
	state := func() string {
		var out []string
		for _, ls := range ctl.Ledger.Links() {
			a, _ := ls.Alloc("c")
			out = append(out, fmt.Sprint(ls.Link.ID, ls.Conns(), a, ls.SumMin(), ls.SumCur(), ls.SumBuffer(), ls.AdvanceReserved))
		}
		return fmt.Sprint(out)
	}
	before := state()
	test.Route = twin
	for _, id := range []string{"c", "d"} {
		test.ConnID = id
		if res, err := ctl.Admit(test); !errors.Is(err, ErrUnknownLink) || res.Admitted {
			t.Fatalf("Admit(%s) over the twin's route = %+v, %v; want ErrUnknownLink", id, res, err)
		}
	}
	ctl.Ledger.Release("c", twin)
	if after := state(); after != before {
		t.Fatalf("the twin's route changed the ledger:\n%s\nwant\n%s", after, before)
	}
	ctl.Ledger.Release("c", route)
	for _, ls := range ctl.Ledger.Links() {
		if ls.NumConns() != 0 {
			t.Fatalf("%s still holds %v after the release over its own route", ls.Link.ID, ls.Conns())
		}
	}
}

// TestHeldHolderOutlivesItsRows: a holder its owner keeps stays the ID's
// through a Release to no rows, by handle or by name, and Admit books
// through it again; only the owner's Drop recycles it. A holder that is
// not the test's ID's on the controller's ledger is refused.
func TestHeldHolderOutlivesItsRows(t *testing.T) {
	b, route := buildChain(t, 2, 10e6, 1e6)
	ctl := NewController(NewLedger(b))
	lg := ctl.Ledger
	h := lg.Hold("c")
	test := Test{ConnID: "c", Holder: h, Req: benchReq(), Route: route, Mobility: qos.Mobile}
	for round, release := range []func(){func() { h.Release() }, func() { lg.Release("c", route) }} {
		if res, err := ctl.Admit(test); err != nil || !res.Admitted {
			t.Fatalf("round %d: admit through the held holder: %+v, %v", round, res, err)
		}
		if got := lg.Link(route.Links[0].ID).Conns(); !slices.Equal(got, []string{"c"}) {
			t.Fatalf("round %d: rows %v after the admit", round, got)
		}
		release()
		if lg.holders["c"] != h || h.ID() != "c" || len(h.refs) != 0 {
			t.Fatalf("round %d: the released holder left its ID: interned %p, held %p named %q", round, lg.holders["c"], h, h.ID())
		}
		if other := lg.Hold("d"); other == h {
			t.Fatalf("round %d: a held holder was handed to another ID", round)
		} else {
			other.Drop()
		}
	}
	for name, bad := range map[string]*Holder{"another ID's": lg.Hold("e"), "another ledger's": NewLedger(b).Hold("c")} {
		test.Holder = bad
		if res, err := ctl.Admit(test); !errors.Is(err, ErrValidation) || res.Admitted {
			t.Fatalf("admit through %s holder = %+v, %v; want ErrValidation", name, res, err)
		}
	}
	h.Drop()
	if _, ok := lg.holders["c"]; ok || h.ID() != "" {
		t.Fatal("a dropped holder with no rows stayed interned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Drop did not panic")
		}
	}()
	h.Drop()
}

// loadedRig is the bench rig with perLink booked connections on every
// link of the route.
func loadedRig(t *testing.T, perLink int) (*Controller, topology.Route) {
	b, route := buildChain(t, 3, 100e6, 100e6)
	lg := NewLedger(b)
	for _, l := range route.Links {
		for i := 0; i < perLink; i++ {
			if err := lg.Link(l.ID).Book(fmt.Sprintf("c%d", i), Alloc{Min: 8e3, Cur: 8e3, Buffer: 2e3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewController(lg), route
}

// TestAdmitAllocsIndependentOfLinkLoad pins what the kept totals and the
// controller's scratch bought: the round trip reads every link's totals
// without a walk, goes through per-hop slices the controller reuses (the
// returned Hops among them), commits into row slots the links already grew
// and takes the holder the Release before it recycled, so an Admit and the
// Release that undoes it allocate nothing, per link or per connection
// sharing it.
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
	if light, heavy := allocs(4), allocs(64); light != 0 || heavy != 0 {
		t.Fatalf("Admit+Release allocates %v objects with 4 connections per link and %v with 64, want 0 at both", light, heavy)
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
