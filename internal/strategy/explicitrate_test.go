package strategy_test

import (
	"math"
	"testing"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/strategy"
)

// explicitRateRivals are the registry names whose switches run the
// explicit-rate rule; every test below runs once per weight.
var explicitRateRivals = []string{"erica", "logweight"}

// rateRig is one explicit-rate allocator on a two-link path (a: 6 Mb/s,
// b: 4 Mb/s) with its bus events tallied.
type rateRig struct {
	sim        *des.Simulator
	alloc      strategy.Allocator
	retxProtos []string
	readverts  int
	converged  int
}

func newRateRig(t *testing.T, name string, opts maxmin.ProtocolOptions) *rateRig {
	t.Helper()
	r := &rateRig{sim: des.New()}
	a, err := strategy.NewAllocator(name, r.sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.alloc = a
	bus := eventbus.New(r.sim)
	a.SetBus(bus)
	bus.Subscribe(func(rec eventbus.Record) {
		switch ev := rec.Event.(type) {
		case eventbus.ControlRetransmit:
			r.retxProtos = append(r.retxProtos, ev.Proto)
		case eventbus.Readvertise:
			r.readverts++
		case eventbus.MaxminConverged:
			r.converged++
		}
	}, eventbus.KindControlRetransmit, eventbus.KindReadvertise, eventbus.KindMaxminConverged)
	for link, capacity := range map[string]float64{"a": 6e6, "b": 4e6} {
		if err := a.AddLink(link, capacity); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *rateRig) add(t *testing.T, id string, demand float64, path ...string) bool {
	t.Helper()
	if err := r.alloc.AddSession(strategy.Session{ID: id, Path: path, Demand: demand}); err != nil {
		t.Fatal(err)
	}
	return r.alloc.Kick(id)
}

func (r *rateRig) runUntil(t *testing.T, horizon float64) {
	t.Helper()
	if err := r.sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
}

// workload drives the fault scenarios' shared script: the two-link
// session x converges alone (so faults aimed at it reorder nothing),
// then one single-link rival joins per link. Returns the final rates.
func (r *rateRig) workload(t *testing.T) map[string]float64 {
	t.Helper()
	r.add(t, "x", 9e6, "a", "b")
	r.runUntil(t, 5)
	r.add(t, "y", 5e6, "a")
	r.add(t, "z", 1e6, "b")
	r.runUntil(t, 15)
	return r.alloc.Rates()
}

func sameRates(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-6 {
			t.Fatalf("rate[%s] = %v, want the loss-free fixed point %v (all: %v)", id, got[id], w, got)
		}
	}
}

// dropFirst returns a Deliver hook that drops the first n ADVERTISE
// sweep packets and the first m UPDATE packets to reach hop 1 — the
// second switch, so the lost packet strands partial recorded state
// upstream like a real mid-path loss.
func dropFirst(sweeps, updates int) maxmin.Deliver {
	return func(_ string, hop int, update bool) (bool, float64) {
		if hop != 1 {
			return false, 0
		}
		left := &sweeps
		if update {
			left = &updates
		}
		if *left == 0 {
			return false, 0
		}
		*left--
		return true, 0
	}
}

// TestExplicitRateRetransmission: a lost sweep hop and a lost UPDATE
// hop are each resent after backoff under the allocator's own protocol
// name, and the run lands on the loss-free fixed point.
func TestExplicitRateRetransmission(t *testing.T) {
	for _, name := range explicitRateRivals {
		t.Run(name, func(t *testing.T) {
			want := newRateRig(t, name, maxmin.ProtocolOptions{}).workload(t)
			if want["x"] == 0 {
				t.Fatalf("loss-free run never allocated x: %v", want)
			}
			r := newRateRig(t, name, maxmin.ProtocolOptions{Deliver: dropFirst(1, 1)})
			got := r.workload(t)
			if n := r.alloc.Stats().Retransmits; n < 2 {
				t.Fatalf("Retransmits = %d, want one per dropped hop", n)
			}
			if len(r.retxProtos) < 2 {
				t.Fatalf("saw %d ControlRetransmit events, want >= 2", len(r.retxProtos))
			}
			for _, proto := range r.retxProtos {
				if proto != r.alloc.Name() {
					t.Fatalf("ControlRetransmit.Proto = %q, want %q", proto, r.alloc.Name())
				}
			}
			sameRates(t, got, want)
		})
	}
}

// TestExplicitRateReadvertiseRepair: once the retry budget is spent the
// session is abandoned with x stuck at rate 0; only the periodic
// re-ADVERTISE loop can notice the drift and repair it.
func TestExplicitRateReadvertiseRepair(t *testing.T) {
	for _, name := range explicitRateRivals {
		t.Run(name, func(t *testing.T) {
			opts := maxmin.ProtocolOptions{MaxRetries: 1, ReadvertisePeriod: 0.5}
			want := newRateRig(t, name, opts).workload(t)
			opts.Deliver = dropFirst(2, 0) // the sweep and its one retry
			r := newRateRig(t, name, opts)
			got := r.workload(t)
			st := r.alloc.Stats()
			if st.Retransmits != 1 {
				t.Fatalf("Retransmits = %d, want exactly the MaxRetries=1 budget", st.Retransmits)
			}
			if st.Readvertises == 0 || r.readverts == 0 {
				t.Fatalf("abandoned session was not repaired: Readvertises = %d, Readvertise events = %d",
					st.Readvertises, r.readverts)
			}
			sameRates(t, got, want)
		})
	}
}

// TestExplicitRateRemoveMidSession: removing a connection whose session
// is still in flight — with a restart already queued behind it — must
// leave no active/dirty gating behind: the orphaned packet's arrival
// declares the allocator quiescent and the ID is reusable afterwards.
func TestExplicitRateRemoveMidSession(t *testing.T) {
	for _, name := range explicitRateRivals {
		for _, pending := range []string{"update", "sweep-retry"} {
			t.Run(name+"/"+pending, func(t *testing.T) {
				var opts maxmin.ProtocolOptions
				if pending == "sweep-retry" {
					opts.Deliver = dropFirst(1, 0)
				}
				r := newRateRig(t, name, opts)
				if !r.add(t, "x", 9e6, "a", "b") {
					t.Fatal("first kick did not start a session")
				}
				if r.alloc.Kick("x") {
					t.Fatal("second kick started a concurrent session instead of queueing")
				}
				r.alloc.RemoveSession("x")
				r.runUntil(t, 5)
				if r.converged == 0 {
					t.Fatal("no MaxminConverged after the removed session's packet drained")
				}
				if !r.add(t, "x", 9e6, "a", "b") {
					t.Fatal("re-added connection could not start a session")
				}
				r.runUntil(t, 10)
				if got := r.alloc.Rates()["x"]; math.Abs(got-4e6) > 1 {
					t.Fatalf("rate[x] = %v after re-add, want the 4e6 bottleneck", got)
				}
			})
		}
	}
}

// TestExplicitRateRulesDiffer: the two registry names are one protocol
// but two rules. On one saturated link with unequal, uncapped demands
// the unit weight guarantees only the C/N floor — an even split that
// ignores demand — while the log weight lands on C·w_c/Σw.
func TestExplicitRateRulesDiffer(t *testing.T) {
	const capacity = 3e6
	demands := map[string]float64{"heavy": 8e6, "light": 2e6}
	wh, wl := 1+math.Log1p(demands["heavy"]), 1+math.Log1p(demands["light"])
	for name, want := range map[string]map[string]float64{
		"erica":     {"heavy": capacity / 2, "light": capacity / 2},
		"logweight": {"heavy": capacity * wh / (wh + wl), "light": capacity * wl / (wh + wl)},
	} {
		t.Run(name, func(t *testing.T) {
			sim := des.New()
			a, err := strategy.NewAllocator(name, sim, maxmin.ProtocolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.AddLink("wl", capacity); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"heavy", "light"} {
				if err := a.AddSession(strategy.Session{ID: id, Path: []string{"wl"}, Demand: demands[id]}); err != nil {
					t.Fatal(err)
				}
				a.Kick(id)
			}
			if err := sim.RunUntil(10); err != nil {
				t.Fatal(err)
			}
			for id, w := range want {
				if got := a.Rates()[id]; math.Abs(got-w) > 1 {
					t.Fatalf("rate[%s] = %v, want %v", id, got, w)
				}
			}
		})
	}
}
