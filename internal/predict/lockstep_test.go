package predict

import (
	"maps"
	"slices"
	"testing"

	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// TestProfileServersMatchMapReference feeds random handoff streams to the
// numbered predictor and to the ID-keyed map reference in lockstep and
// holds every answer of the two equal after every step: NextCell,
// PredictByPortable, PredictByCell, HandoffDistribution, the slotted
// departure and arrival counts, Classify, the cell profile's diagnostic
// line (history length, distinct visitors, top-4 visitor share) and
// every zone server's portable-level prediction for every walker, so a
// profile a handover should have moved shows in the zone it was left in.
//
// The streams run on the campus (two zones) and on a three-floor grid
// (three zones; its corridor IDs sort apart from their numbers, "cor-0-10"
// before "cor-0-2", so a tie broken by number shows). They hold chained
// walks plus unknown previous cells, self-handoffs, jumps that do not
// chain, zone crossings, history limits small enough to expire many times
// over, and zone crashes mid-stream.
func TestProfileServersMatchMapReference(t *testing.T) {
	campus, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.BuildGrid(3, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		env       *topology.Environment
		opts      profile.ServerOptions
		portables []string
		steps     int
		seed      int64
		allCells  int // check every cell each allCells steps
	}{
		{"campus", campus, profile.ServerOptions{NpP: 5, NpC: 12},
			[]string{"alice", "bob", "carol", "dave", "p1", "p2", "p3", "p4"}, 4000, 1, 1},
		{"campus-defaults", campus, profile.ServerOptions{},
			[]string{"alice", "dave", "p1", "p2", "p3", "p4", "p5"}, 3000, 2, 1},
		{"grid", grid, profile.ServerOptions{NpP: 7, NpC: 9},
			[]string{"occ-0-1", "occ-1-3", "occ-2-11", "occ-0-10", "g1", "g2", "g3", "g4", "g5"}, 3000, 3, 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			lockstep(t, c.env.Universe, c.opts, c.portables, c.steps, c.seed, c.allCells)
		})
	}
}

func lockstep(t *testing.T, u *topology.Universe, opts profile.ServerOptions, names []string, steps int, seed int64, allCells int) {
	rng := randx.New(seed)
	p := New(u, opts)
	filled := opts
	if filled.NpP <= 0 {
		filled.NpP = 100
	}
	if filled.NpC <= 0 {
		filled.NpC = 500
	}
	ref := newRefPredictor(u, filled)
	cells := u.Cells()
	zones := u.Zones()
	randomCell := func() *topology.Cell { return cells[rng.Intn(len(cells))] }
	id := func(c *topology.Cell) topology.CellID {
		if c == nil {
			return ""
		}
		return c.ID
	}
	type walker struct {
		n         int
		prev, cur *topology.Cell
	}
	walkers := make([]*walker, len(names))
	for i, name := range names {
		walkers[i] = &walker{n: p.Number(name)}
	}

	now := 0.0
	crashes, crossings, selfs := 0, 0, 0
	checkPortable := func(step int, name string, n int, prev, cur *topology.Cell) {
		t.Helper()
		d := p.NextCell(n, prev, cur)
		act, target, level := ref.nextCell(name, id(prev), cur.ID)
		if d.Action != act || id(d.Target) != target || d.Level != level {
			t.Fatalf("step %d: NextCell(%s, %s, %s) = %v %s level %d, reference %v %s level %d",
				step, name, id(prev), cur.ID, d.Action, id(d.Target), d.Level, act, target, level)
		}
		next, ok := p.zone[cur.Index].PredictByPortable(n, p.number(prev), cur.Index)
		want, wantOK := ref.serverFor(cur.ID).predictByPortable(name, id(prev), cur.ID)
		if ok != wantOK || (ok && p.cells[next].ID != want) {
			t.Fatalf("step %d: PredictByPortable(%s, %s, %s) = %d/%v, reference %s/%v",
				step, name, id(prev), cur.ID, next, ok, want, wantOK)
		}
	}
	checkCell := func(step int, c, prev *topology.Cell) {
		t.Helper()
		srv, rs := p.ServerFor(c.ID), ref.serverFor(c.ID)
		cp, rc := srv.Cell(c.ID), rs.cells[c.ID]
		next, ok := srv.PredictByCell(c.Index, p.number(prev))
		want, wantOK := rc.predict(id(prev))
		if ok != wantOK || (ok && p.cells[next].ID != want) {
			t.Fatalf("step %d: PredictByCell(%s, %s) = %d/%v, reference %s/%v", step, c.ID, id(prev), next, ok, want, wantOK)
		}
		if got, want := srv.HandoffDistribution(c.ID, id(prev)), rc.probabilities(id(prev)); !maps.Equal(got, want) {
			t.Fatalf("step %d: HandoffDistribution(%s, %s) = %v, reference %v", step, c.ID, id(prev), got, want)
		}
		if got, want := cp.RecentDepartures(now, 3), rc.recent(rc.departures, now, 3); !slices.Equal(got, want) {
			t.Fatalf("step %d: RecentDepartures(%s) = %v, reference %v", step, c.ID, got, want)
		}
		if got, want := cp.RecentArrivals(now, 3), rc.recent(rc.arrivals, now, 3); !slices.Equal(got, want) {
			t.Fatalf("step %d: RecentArrivals(%s) = %v, reference %v", step, c.ID, got, want)
		}
		if s := cp.Slot(now); cp.DeparturesIn(s) != rc.departures[s] {
			t.Fatalf("step %d: DeparturesIn(%s) = %d, reference %d", step, c.ID, cp.DeparturesIn(s), rc.departures[s])
		}
		if got, want := profile.Classify(cp), rc.classify(); got != want {
			t.Fatalf("step %d: Classify(%s) = %v, reference %v", step, c.ID, got, want)
		}
		if got, want := cp.String(), rc.string(cp.Class); got != want {
			t.Fatalf("step %d: profile line %q, reference %q", step, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		now += rng.Exp(1.0 / 20)
		if rng.Intn(100) == 0 {
			zone := zones[rng.Intn(len(zones))]
			if err := p.CrashZone(zone); err != nil {
				t.Fatal(err)
			}
			ref.crashZone(zone)
			crashes++
		}
		i := rng.Intn(len(walkers))
		w, name := walkers[i], names[i]
		if w.cur == nil {
			w.cur = randomCell() // placement: nothing to report
			continue
		}
		from, prev := w.cur, w.prev
		switch r := rng.Intn(100); {
		case r < 5:
			from = randomCell() // a report that does not chain
		case r < 15:
			prev = nil // previous cell unknown
		case r < 20:
			prev = randomCell()
		}
		var to *topology.Cell
		switch r := rng.Intn(100); {
		case r < 7:
			to = from
			selfs++
		case r < 20:
			to = randomCell()
		default:
			nbs := p.neighbors[from.Index]
			to = nbs[rng.Intn(len(nbs))]
		}
		if from.Zone != to.Zone {
			crossings++
		}
		p.RecordHandoff(w.n, prev, from, to, now)
		ref.recordHandoff(refHandoff{Portable: name, Prev: id(prev), From: from.ID, To: to.ID, Time: now})
		if to != from {
			w.prev, w.cur = from, to
		}

		checkPortable(step, name, w.n, w.prev, w.cur)
		o := rng.Intn(len(walkers))
		qPrev := randomCell()
		if rng.Intn(4) == 0 {
			qPrev = nil
		}
		checkPortable(step, names[o], walkers[o].n, qPrev, randomCell())
		for _, c := range []*topology.Cell{from, to, randomCell()} {
			for _, q := range []*topology.Cell{nil, prev, from, randomCell()} {
				checkCell(step, c, q)
			}
		}
		if step%allCells == 0 {
			for _, c := range cells {
				checkCell(step, c, nil)
				checkCell(step, c, randomCell())
			}
			for _, zone := range zones {
				for i, w := range walkers {
					if w.cur == nil {
						continue
					}
					next, ok := p.Servers[zone].PredictByPortable(w.n, p.number(w.prev), w.cur.Index)
					want, wantOK := ref.servers[zone].predictByPortable(names[i], id(w.prev), w.cur.ID)
					if ok != wantOK || (ok && p.cells[next].ID != want) {
						t.Fatalf("step %d: zone %s's PredictByPortable(%s, %s, %s) = %d/%v, reference %s/%v",
							step, zone, names[i], id(w.prev), w.cur.ID, next, ok, want, wantOK)
					}
				}
			}
		}
	}
	if crashes < 5 || crossings < 50 || selfs < 50 {
		t.Fatalf("stream too tame: %d crashes, %d zone crossings, %d self-handoffs", crashes, crossings, selfs)
	}
	t.Logf("%d steps: %d crashes, %d zone crossings, %d self-handoffs", steps, crashes, crossings, selfs)
}

// TestZoneCrossingCountsTwice pins the defect ROADMAP item 25 names, in
// step with the reference: a zone-crossing handoff reaches the portable's
// profile from both servers. After two handoffs cor-w2 → lounge and one
// cor-w2 → cor-e1 (into the east zone), the crossing counts 2, ties the
// lounge's 2, and the tie goes to the smaller ID, cor-e1; counted once it
// would lose to the lounge. Fixing the defect flips this test on purpose.
func TestZoneCrossingCountsTwice(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	p := New(env.Universe, profile.ServerOptions{})
	record(p, "x", "cor-w1", "cor-w2", "lounge", 1)
	record(p, "x", "cor-w1", "cor-w2", "lounge", 2)
	record(p, "x", "cor-w1", "cor-w2", "cor-e1", 3)
	u := env.Universe
	srv := p.ServerFor("cor-e1")
	next, ok := srv.PredictByPortable(p.Number("x"), u.Cell("cor-w1").Index, u.Cell("cor-w2").Index)
	if got := p.cells[next].ID; !ok || got != "cor-e1" {
		t.Fatalf("PredictByPortable = %s/%v, want cor-e1 while a crossing counts twice", got, ok)
	}
}
