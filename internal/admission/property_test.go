package admission

import (
	"fmt"
	"testing"

	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/sched"
	"armnet/internal/topology"
)

// ledgerSnapshot captures the externally observable reservation state of
// every link, used to prove the admission test is all-or-nothing.
type ledgerSnapshot map[topology.LinkID]linkSnapshot

type linkSnapshot struct {
	sumMin, sumCur, sumBuffer, advance float64
	conns                              int
}

func snapshot(lg *Ledger) ledgerSnapshot {
	s := make(ledgerSnapshot)
	for _, ls := range lg.Links() {
		// Sum in sorted connection order: SumMin and friends iterate a map,
		// so two calls on identical state can differ in the last ulp.
		snap := linkSnapshot{advance: ls.AdvanceReserved, conns: ls.NumConns()}
		for _, id := range ls.Conns() {
			a, _ := ls.Alloc(id)
			snap.sumMin += a.Min
			snap.sumCur += a.Cur
			snap.sumBuffer += a.Buffer
		}
		s[ls.Link.ID] = snap
	}
	return s
}

// randomRequest draws a QoS request loose enough to exercise both
// admissions and bandwidth rejections as links fill up.
func randomRequest(rng *randx.Rand) qos.Request {
	bmin := 16e3 + rng.Float64()*240e3
	return qos.Request{
		Bandwidth: qos.Bounds{Min: bmin, Max: bmin * (1 + rng.Float64()*3)},
		Delay:     2 + rng.Float64()*8,
		Jitter:    2 + rng.Float64()*8,
		Loss:      0.02 + rng.Float64()*0.05,
		Traffic:   qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
	}
}

// buildChain constructs a linear backbone of n wired hops plus a wireless
// tail and returns the end-to-end route.
func buildChain(t *testing.T, hops int, wired, wireless float64) (*topology.Backbone, topology.Route) {
	t.Helper()
	b := topology.NewBackbone()
	prev := topology.NodeID("host")
	b.MustAddNode(topology.Node{ID: prev})
	for i := 0; i < hops; i++ {
		next := topology.NodeID(fmt.Sprintf("sw%d", i))
		b.MustAddNode(topology.Node{ID: next})
		b.MustAddDuplex(topology.Link{From: prev, To: next, Capacity: wired, PropDelay: 1e-3})
		prev = next
	}
	b.MustAddNode(topology.Node{ID: "air"})
	b.MustAddDuplex(topology.Link{From: prev, To: "air", Capacity: wireless, Wireless: true, LossProb: 0.005})
	r, err := b.ShortestPath("host", "air")
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

// TestLedgerNeverOvercommits drives random admitted connection sets
// (mixed kinds, mobilities, disciplines, occasional releases and advance
// reservations) through the controller and asserts the safety invariants
// of Table 2 after every operation: guaranteed bandwidth and committed
// buffers never exceed any link's capacity, and Cur stays within
// [Min, capacity-feasible] bounds.
func TestLedgerNeverOvercommits(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := randx.New(int64(trial + 1))
		hops := 1 + rng.Intn(4)
		wireless := 0.8e6 + rng.Float64()*1.6e6
		b, route := buildChain(t, hops, 10e6, wireless)
		lg := NewLedger(b)
		ctl := NewController(lg)
		admitted := map[string]topology.Route{}

		check := func(op string) {
			t.Helper()
			for _, ls := range lg.Links() {
				if ls.SumMin() > ls.Capacity+1e-9 {
					t.Fatalf("trial %d after %s: link %s over-committed on b_min: %v > %v",
						trial, op, ls.Link.ID, ls.SumMin(), ls.Capacity)
				}
				if ls.SumBuffer() > ls.BufferCapacity+1e-9 {
					t.Fatalf("trial %d after %s: link %s over-committed buffers: %v > %v",
						trial, op, ls.Link.ID, ls.SumBuffer(), ls.BufferCapacity)
				}
				for _, id := range ls.Conns() {
					a, _ := ls.Alloc(id)
					if a.Cur < a.Min-1e-9 {
						t.Fatalf("trial %d after %s: %s on %s below guaranteed minimum: %v < %v",
							trial, op, id, ls.Link.ID, a.Cur, a.Min)
					}
				}
			}
		}

		for op := 0; op < 120; op++ {
			switch {
			case len(admitted) > 0 && rng.Bernoulli(0.2):
				// Release a random admitted connection (sorted draw keeps
				// the trial deterministic).
				ids := make([]string, 0, len(admitted))
				for id := range admitted {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				lg.Release(id, admitted[id])
				delete(admitted, id)
				check("release")
			case rng.Bernoulli(0.15):
				// Advance-reserve a random slice on a random link.
				links := lg.Links()
				ls := links[rng.Intn(len(links))]
				if err := lg.AddAdvance(ls.Link.ID, (rng.Float64()-0.3)*wireless/2); err != nil {
					t.Fatal(err)
				}
				check("advance")
			default:
				kind := Kind(rng.Intn(3))
				mob := qos.Mobile
				if rng.Bernoulli(0.5) {
					mob = qos.Static
				}
				disc := sched.DisciplineWFQ
				if rng.Bernoulli(0.3) {
					disc = sched.DisciplineRCSP
				}
				id := fmt.Sprintf("c%d-%d", trial, op)
				res, err := ctl.Admit(Test{
					ConnID: id, Req: randomRequest(rng), Route: route, Kind: kind,
					Mobility: mob, BStamp: rng.Float64() * 64e3, Discipline: disc,
				})
				if err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				if res.Admitted {
					admitted[id] = route
				}
				check("admit")
			}
		}
	}
}

// TestRejectionLeavesNoTrace asserts the round-trip structure of Table 2:
// when the forward pass rejects, the reverse pass must never run — no
// relaxation appears in the result and no ledger state changes. The trial
// loads links until rejections occur, snapshotting around every attempt.
func TestRejectionLeavesNoTrace(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := randx.New(int64(1000 + trial))
		hops := 1 + rng.Intn(3)
		// A tight wireless tail forces bandwidth rejections quickly.
		b, route := buildChain(t, hops, 10e6, 0.4e6+rng.Float64()*0.4e6)
		ctl := NewController(NewLedger(b))
		rejections := 0
		for op := 0; op < 80; op++ {
			kind := Kind(rng.Intn(3))
			mob := qos.Mobile
			if rng.Bernoulli(0.5) {
				mob = qos.Static
			}
			before := snapshot(ctl.Ledger)
			id := fmt.Sprintf("r%d-%d", trial, op)
			res, err := ctl.Admit(Test{
				ConnID: id, Req: randomRequest(rng), Route: route, Kind: kind,
				Mobility: mob, BStamp: rng.Float64() * 64e3,
			})
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			if res.Admitted {
				continue
			}
			rejections++
			if res.Reason == "" {
				t.Fatalf("trial %d op %d: rejection without reason", trial, op)
			}
			// Reverse pass must not have run: no committed bandwidth, no
			// relaxed delays or buffers on any inspected hop.
			if res.Bandwidth != 0 {
				t.Fatalf("trial %d op %d: rejected but bandwidth committed: %v", trial, op, res.Bandwidth)
			}
			for _, h := range res.Hops {
				if h.RelaxedDelay != 0 || h.Buffer != 0 {
					t.Fatalf("trial %d op %d: rejected but reverse pass touched hop %s: %+v",
						trial, op, h.Link, h)
				}
			}
			// And the ledger must be byte-identical to the snapshot.
			after := snapshot(ctl.Ledger)
			for linkID, want := range before {
				if got := after[linkID]; got != want {
					t.Fatalf("trial %d op %d: rejection mutated link %s: before %+v after %+v",
						trial, op, linkID, want, got)
				}
			}
			if _, ok := ctl.Ledger.Link(route.Links[0].ID).Alloc(id); ok {
				t.Fatalf("trial %d op %d: rejected connection left an allocation", trial, op)
			}
		}
		if rejections == 0 {
			t.Fatalf("trial %d: workload produced no rejections — property vacuous", trial)
		}
	}
}
