package core

import (
	"fmt"
	"slices"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/mobility"
	"armnet/internal/overload"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// rowsAtRelease is the manager's own reservation seam with a check in
// front of every Holder.Release: the links the holder has rows on must
// be exactly the links of the route the rows were admitted over (the
// connection's route, or its leg's), or none at all (a handoff or
// renegotiation whose admission failed, a refused leg). Holder.Release()
// frees every row the holder owns and Ledger.Release(id, route) only the
// rows on the route, so the two agree wherever this holds.
type rowsAtRelease struct {
	*Manager
	t           testing.TB
	exact, none int
}

func (r *rowsAtRelease) releaseRoute(c *Connection) {
	r.check(c.h, c.Route)
	r.Manager.releaseRoute(c)
}

func (r *rowsAtRelease) releaseMulticast(c *Connection) {
	if c.mcast != nil {
		for _, leg := range c.mcast.legs {
			r.check(c.legs[leg.key-c.legBase], leg.route)
		}
	}
	r.Manager.releaseMulticast(c)
}

func (r *rowsAtRelease) check(h *admission.Holder, route topology.Route) {
	r.t.Helper()
	var rows, want []topology.LinkID
	for _, ls := range r.ledger.Links() { // in link-ID order
		if _, ok := ls.Alloc(h.ID()); ok {
			rows = append(rows, ls.Link.ID)
		}
	}
	for _, l := range route.Links {
		want = append(want, l.ID)
	}
	slices.Sort(want)
	switch {
	case len(rows) == 0:
		r.none++
	case slices.Equal(rows, want):
		r.exact++
	default:
		r.t.Fatalf("t=%v: %s has rows on %v before its release, its route is %v", r.Sim.Now(), h.ID(), rows, want)
	}
}

// walkChecked is the sim package's walk on the campus with the check
// installed: n portables random-walk (mean dwell 60 s) for duration
// seconds and each opens a connection where it is placed — through the
// signaling plane when signaled is set — renegotiates it 40 s later,
// closes it 100 s after that and opens the next; every fifth portable
// instead opens a best-effort connection and renegotiates it into a
// reserved one. Under a fault plan every seventh signaled setup is also
// cut by a signaling crash. The run settles for 60 s more. arm, when
// non-nil, sees the manager before the run starts. It returns the check
// and how many holds the signaling plane's lease reclaimed.
func walkChecked(t *testing.T, cfg Config, n int, duration float64, bw qos.Bounds, signaled bool, arm func(*Manager)) (*rowsAtRelease, int64) {
	t.Helper()
	sim, m := newCampus(t, cfg)
	chk := &rowsAtRelease{Manager: m, t: t}
	m.rsv = chk
	if arm != nil {
		arm(m)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%02d", i)
	}
	trace, err := mobility.RandomWalk(m.Env.Universe, names, 60, duration, randx.New(cfg.Seed+1))
	if err != nil {
		t.Fatal(err)
	}
	request := req(bw.Min, bw.Max)
	setups := 0
	var open func(portable string)
	opened := func(portable, id string) {
		sim.After(40, func() {
			if m.Connection(id) != nil {
				_ = m.Renegotiate(id, qos.Bounds{Min: bw.Min / 2, Max: bw.Max * 2})
			}
		})
		sim.After(140, func() {
			if m.CloseConnection(id) == nil && sim.Now() < duration {
				open(portable)
			}
		})
	}
	open = func(portable string) {
		switch {
		case slices.Index(names, portable)%5 == 4:
			if id, err := m.OpenConnection(portable, qos.Request{}); err == nil {
				sim.After(20, func() { _ = m.Renegotiate(id, bw) })
			}
		case signaled:
			_ = m.OpenConnectionAsync(portable, request, func(id string, err error) {
				if err == nil {
					opened(portable, id)
				}
			})
			// Under a fault plan every seventh setup is cut by a
			// signaling crash 6 ms in: committed at the destination,
			// its confirmation still on the way back (as in
			// TestFaultAuditorSeesCrashOrphansUntilLease).
			if setups++; cfg.Faults != nil && setups%7 == 0 {
				sim.After(0.006, func() { _ = m.CrashSignaling() })
			}
		default:
			if id, err := m.OpenConnection(portable, request); err == nil {
				opened(portable, id)
			}
		}
	}
	trace.Schedule(sim, func(mv mobility.Move) {
		if mv.From != "" {
			_ = m.HandoffPortable(mv.Portable, mv.To)
		} else if m.PlacePortable(mv.Portable, mv.To) == nil {
			open(mv.Portable)
		}
	})
	if err := sim.RunUntil(duration + 60); err != nil {
		t.Fatal(err)
	}
	return chk, m.Met.Counter.Get(CtrReclaimedHolds)
}

// TestHolderRowsAreRouteLinksAtRelease: before every Holder.Release in
// core — a handoff's release of the old path, a renegotiation's, a
// teardown's and every multicast leg's — the holder's rows lie exactly
// on the links of the route they were admitted over, or nowhere. That
// is what lets core release by the holder (every row it owns) where it
// released by the route: the two free the same rows. The runs cover the
// campus walk, signaled setups, the chaos plan with a signaling crash
// (whose orphaned commits the lease releases by route), repeated
// signaling crashes, the overload walk with its degrade-before-drop
// re-admission, and the measured-sum rival admitter.
func TestHolderRowsAreRouteLinksAtRelease(t *testing.T) {
	pol := overload.Default()
	low := qos.Bounds{Min: 32e3, Max: 128e3}
	for _, c := range []struct {
		name     string
		cfg      Config
		n        int
		bw       qos.Bounds
		signaled bool
	}{
		{"campus", Config{Seed: 1, Tth: 40}, 24, low, false},
		{"signaled", Config{Seed: 2, Tth: 40}, 24, low, true},
		{"chaos", Config{Seed: 3, Faults: mustPlan(t, "at 120 cell-out off-2 for 60\nat 300 crash-zone west\nat 450 crash-signaling\ndrop any 0.1")}, 16, low, true},
		{"crash-signaling", Config{Seed: 4, Faults: mustPlan(t, "drop signal 0.05")}, 32, low, true},
		{"overload", Config{Seed: 5, Tth: 60, Overload: &pol}, 40, qos.Bounds{Min: 160e3, Max: 320e3}, false},
		{"measured", Config{Seed: 6, Tth: 40, Admitter: "measured"}, 24, qos.Bounds{Min: 96e3, Max: 192e3}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			chk, reclaimed := walkChecked(t, c.cfg, c.n, 1200, c.bw, c.signaled, nil)
			if chk.exact == 0 || chk.none == 0 {
				t.Fatalf("%d releases of a holder with rows, %d of one without: the runs must see both", chk.exact, chk.none)
			}
			if c.cfg.Faults != nil && reclaimed == 0 {
				t.Fatal("no crash orphaned a hold: the run does not test the lease beside core's releases")
			}
			t.Logf("%d releases over exactly the route's links, %d of a holder with no rows; %d holds reclaimed", chk.exact, chk.none, reclaimed)
		})
	}
}
