package maxmin

import (
	"fmt"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/raceflag"
	"armnet/internal/randx"
	"armnet/internal/sortx"
)

// referenceAdvertised is the restricted-set iteration as the switches ran
// it before the one-walk kernel: a pass that marks the rows below μ, then
// FairShare's own pass over the marks. Row forced (-1: none) is held
// unrestricted. Every μ the product code computes or remembers is checked
// against it with ==.
func referenceAdvertised(capacity float64, recorded []float64, forced int) float64 {
	n := len(recorded)
	if n == 0 {
		return capacity
	}
	restricted := make([]bool, n)
	mu := FairShare(capacity, recorded, restricted)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, r := range recorded {
			want := r < mu && i != forced
			if restricted[i] != want {
				restricted[i] = want
				changed = true
			}
		}
		if !changed {
			break
		}
		mu = FairShare(capacity, recorded, restricted)
	}
	if mu < 0 {
		mu = 0
	}
	return mu
}

// mapLink is the reference the link table is checked against: the
// per-link state as two maps, sorted into ID order on every read.
type mapLink struct {
	capacity float64
	recorded map[string]float64
	mSet     map[string]bool
}

func (m *mapLink) advertised() float64 { return m.advertisedFor("") } // no row is called ""

func (m *mapLink) advertisedFor(c string) float64 {
	ids := sortx.Keys(m.recorded)
	recorded := make([]float64, len(ids))
	forced := -1
	for i, id := range ids {
		recorded[i] = m.recorded[id]
		if id == c {
			forced = i
		}
	}
	return referenceAdvertised(m.capacity, recorded, forced)
}

// checkLinkMatchesOracle drives a linkState and the map reference through
// the same seeded sequence of add / remove / re-add / record / set-M /
// capacity steps, writing through insert / remove / record / setCapacity
// only. After every step the table must be strictly ascending with
// |M(l)| equal to the reference set's size, and μ — asked twice, so the
// second answer is a remembered one — and μ-for-c must be the same float,
// bit for bit, for every ID on the link or off it.
func checkLinkMatchesOracle(t *testing.T, seed int64, steps int) {
	rng := randx.New(seed)
	universe := make([]string, 14) // "c10" sorts before "c2": string order, not numeric
	for i := range universe {
		universe[i] = fmt.Sprintf("c%d", i)
	}
	capacity := 1 + rng.Float64()*30
	ls := &linkState{name: "l", capacity: capacity}
	ref := &mapLink{capacity: capacity, recorded: map[string]float64{}, mSet: map[string]bool{}}
	hints := make([]int, len(universe)) // kept across steps, so they go stale
	for step := 0; step < steps; step++ {
		k := rng.Intn(len(universe))
		id := universe[k]
		_, on := ref.recorded[id]
		switch op := rng.Intn(7); {
		case op == 0 || (op == 3 && !on):
			// On a connection already there this is the map's
			// recorded[id] = 0: the rate resets, M(l) does not.
			ls.insert(id, 0)
			ref.recorded[id] = 0
		case op <= 2: // absent half the time: a no-op on both sides
			ls.remove(id)
			delete(ref.recorded, id)
			delete(ref.mSet, id)
		case op == 3:
			rate := rng.Float64() * capacity
			if rng.Bernoulli(0.3) {
				rate = capacity / float64(1+rng.Intn(4)) // ties at the fair share
			}
			if rng.Bernoulli(0.2) {
				rate = ref.recorded[id] // a re-stamp of what is there
			}
			ls.record(ls.slot(id, &hints[k]), rate)
			ref.recorded[id] = rate
		case op == 4: // re-add: the row comes back zeroed and outside M(l)
			ls.remove(id)
			ls.insert(id, 0)
			ref.recorded[id] = 0
			delete(ref.mSet, id)
		case op == 5 && on:
			in := rng.Bernoulli(0.5)
			ls.setM(ls.slot(id, &hints[k]), in)
			if in {
				ref.mSet[id] = true
			} else {
				delete(ref.mSet, id)
			}
		default:
			if rng.Bernoulli(0.8) { // else set it to what it is
				capacity = rng.Float64() * 30
			}
			ls.setCapacity(capacity)
			ref.capacity = capacity
		}

		if n := len(ls.ids); len(ls.recorded) != n || len(ls.inM) != n || len(ls.restricted) != n {
			t.Fatalf("seed %d step %d: columns of %d ids have lengths %d, %d, %d",
				seed, step, n, len(ls.recorded), len(ls.inM), len(ls.restricted))
		}
		for i := 1; i < len(ls.ids); i++ {
			if ls.ids[i-1] >= ls.ids[i] {
				t.Fatalf("seed %d step %d: ids not strictly ascending: %q", seed, step, ls.ids)
			}
		}
		if len(ls.ids) != len(ref.recorded) {
			t.Fatalf("seed %d step %d: table holds %q, reference %v", seed, step, ls.ids, ref.recorded)
		}
		inM := 0
		for i, id := range ls.ids {
			if ls.inM[i] != ref.mSet[id] {
				t.Fatalf("seed %d step %d: %s in M(l) = %v, reference %v", seed, step, id, ls.inM[i], ref.mSet[id])
			}
			if ls.inM[i] {
				inM++
			}
		}
		if ls.mCount != len(ref.mSet) || ls.mCount != inM {
			t.Fatalf("seed %d step %d: |M(l)| = %d, %d rows marked, reference %d", seed, step, ls.mCount, inM, len(ref.mSet))
		}
		want := ref.advertised()
		for ask := 1; ask <= 2; ask++ {
			if got := ls.advertised(); got != want {
				t.Fatalf("seed %d step %d: advertised (ask %d) = %v, reference %v", seed, step, ask, got, want)
			}
		}
		for k, id := range universe {
			s := ls.slot(id, &hints[k])
			if _, on := ref.recorded[id]; on != (s >= 0) {
				t.Fatalf("seed %d step %d: slot(%s) = %d, on the reference link: %v", seed, step, id, s, on)
			}
			if got, want := ls.advertisedFor(s), ref.advertisedFor(id); got != want {
				t.Fatalf("seed %d step %d: advertisedFor(%s) = %v, reference %v", seed, step, id, got, want)
			}
		}
	}
}

func TestLinkStateMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkLinkMatchesOracle(t, seed, 400)
	}
}

func FuzzLinkStateMatchesMapOracle(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(-9), uint16(300))
	f.Add(int64(20260929), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		checkLinkMatchesOracle(t, seed, int(steps%2048))
	})
}

// settledPath builds a 3-link path carrying perLink connections on every
// link, its switches running rule, and settles it. Every demand is above
// the links' capacity yet finite, so a log weight is too. settle runs the
// simulator until it has nothing left to do.
func settledPath(tb testing.TB, perLink int, rule SwitchRule) (pr *Protocol, settle func()) {
	sim := des.New()
	pr = NewProtocolWith(clock.Sim(sim), ProtocolOptions{Refined: true}, rule)
	path := []string{"l0", "l1", "l2"}
	for _, l := range path {
		if err := pr.AddLink(l, 100); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < perLink; i++ {
		if err := pr.AddConn(Conn{ID: fmt.Sprintf("c%d", i), Path: path, Demand: 1e3}); err != nil {
			tb.Fatal(err)
		}
	}
	pr.KickAll()
	now := 0.0
	settle = func() {
		now += 1000
		if err := sim.RunUntil(now); err != nil {
			tb.Fatal(err)
		}
		if n := sim.Pending(); n != 0 {
			tb.Fatalf("%d events pending after a session", n)
		}
	}
	settle()
	return pr, settle
}

// sessionAllocs returns what one more Kick session run to quiescence
// allocates on a settled path of perLink connections under rule.
func sessionAllocs(t *testing.T, perLink int, rule SwitchRule) float64 {
	pr, settle := settledPath(t, perLink, rule)
	return testing.AllocsPerRun(50, func() {
		if !pr.Kick("c0") {
			t.Fatal("Kick(c0) started no session")
		}
		settle()
	})
}

// TestProtocolSessionAllocsIndependentOfLinkLoad pins what the link table
// and the pooled continuations bought: a switch answers an ADVERTISE from
// the state it holds and a session's rounds and UPDATE post recycled step
// records, so a settled session — four rounds and an UPDATE — allocates
// nothing however many connections share its links, and computing μ
// costs nothing either. The explicit-rate rules' one-round sessions are
// held to the same.
func TestProtocolSessionAllocsIndependentOfLinkLoad(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	for _, rule := range testRules {
		light, heavy := sessionAllocs(t, 8, rule), sessionAllocs(t, 64, rule)
		if light != 0 || heavy != 0 {
			t.Fatalf("%s: a session allocates %v objects with 8 connections per link and %v with 64, want 0", rule.Name, light, heavy)
		}
	}

	ls := &linkState{capacity: 100}
	for i := 0; i < 64; i++ {
		ls.insert(fmt.Sprintf("c%d", i), 0)
	}
	for i := range ls.recorded {
		ls.record(i, float64(i%7)+1)
	}
	if got := testing.AllocsPerRun(1000, func() { ls.advertised() }); got != 0 {
		t.Fatalf("advertised allocates %v/op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { ls.advertisedFor(5) }); got != 0 {
		t.Fatalf("advertisedFor allocates %v/op, want 0", got)
	}
}
