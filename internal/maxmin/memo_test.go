package maxmin

import (
	"fmt"
	"math"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
	"armnet/internal/sortx"
)

// TestAdvertisedRateMatchesTwoPassReference pins the one-walk kernel to
// the mark-then-fairShare iteration it replaced, on the inputs where the
// two could part: rates tied at the fair share, every row restricted,
// nothing restricted, a table past the stack buffer.
func TestAdvertisedRateMatchesTwoPassReference(t *testing.T) {
	type input struct {
		capacity float64
		recorded []float64
	}
	cases := []input{
		{5, nil},
		{10, []float64{5, 5}},
		{10, []float64{10, 4}},
		{12, []float64{4, 4, 4}},
		{9, []float64{3, 3, 1}},
		{10, []float64{1, 2}}, // both below 10/2: N_R = N_l
		{0, []float64{0, 0}},
		{1, []float64{0.3, 0.3, 5}},
		{16e3 / 3, []float64{16e3 / 9, 16e3 / 9, 16e3 / 9}},
		{math.Copysign(0, -1), []float64{0}},
	}
	rng := randx.New(21)
	for n := 1; n <= 100; n += 1 + n/8 {
		for rep := 0; rep < 20; rep++ {
			capacity := rng.Float64() * 30
			recorded := make([]float64, n)
			for i := range recorded {
				recorded[i] = rng.Float64() * capacity
				if rng.Bernoulli(0.3) {
					recorded[i] = capacity / float64(1+rng.Intn(4)) // ties at the fair share
				}
			}
			cases = append(cases, input{capacity, recorded})
		}
	}
	for _, c := range cases {
		want := referenceAdvertised(c.capacity, c.recorded, -1)
		if got := advertisedRate(c.capacity, c.recorded); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("AdvertisedRate(%v, %v) = %v, two-pass reference %v", c.capacity, c.recorded, got, want)
		}
	}
}

// TestRecordSameValueKeepsMemo is the property the memo's hit rate rests
// on: re-stamping the bits a row already holds is not a change, one ulp
// is; likewise for the capacity.
func TestRecordSameValueKeepsMemo(t *testing.T) {
	ls := &linkState{name: "l", capacity: 10}
	ls.insert(offHop(ls, "a"), 0)
	ls.insert(offHop(ls, "b"), 0)
	ls.record(0, 2.5)
	ls.advertised()
	v := ls.version

	ls.record(0, 2.5)
	ls.setCapacity(10)
	if ls.version != v || ls.muAt != v {
		t.Fatalf("re-stamping identical bits moved the version %d -> %d (memo at %d)", v, ls.version, ls.muAt)
	}
	ls.record(0, math.Nextafter(2.5, 3))
	if ls.version != v+1 {
		t.Fatalf("a one-ulp rate change left the version at %d, want %d", ls.version, v+1)
	}
	ls.setCapacity(math.Nextafter(10, 11))
	if ls.version != v+2 {
		t.Fatalf("a one-ulp capacity change left the version at %d, want %d", ls.version, v+2)
	}
	ls.record(1, math.Copysign(0, -1)) // -0 == 0, but not the same bits
	if ls.version != v+3 {
		t.Fatalf("0 -> -0 left the version at %d, want %d", ls.version, v+3)
	}
	if got, want := ls.advertised(), referenceAdvertised(ls.capacity, ls.recorded, -1); got != want {
		t.Fatalf("advertised after the changes = %v, reference %v", got, want)
	}
}

// scripted is what runScript drives: a Protocol, or a reference that must
// behave like one. Rates, counters and setBus are what a lockstep
// comparison reads.
type scripted interface {
	AddLink(name string, capacity float64) error
	AddConn(c Conn) error
	RemoveConn(id string)
	Kick(id string) bool
	KickAll()
	TriggerCapacityChange(link int, capacity float64) (int, error)
	Rates() allocation
	counters() [4]int // Messages, Sessions, Retransmits, Readvertises
	setBus(bus *eventbus.Bus)
}

func (pr *Protocol) counters() [4]int {
	return [4]int{pr.Messages, pr.Sessions, pr.Retransmits, pr.Readvertises}
}

func (pr *Protocol) setBus(bus *eventbus.Bus) { pr.Bus = bus }

// runScript drives protocols in lockstep through a seeded sequence of
// AddConn / RemoveConn / re-add with a session pending / capacity changes
// up, down and to the same value / Kick / KickAll / partial simulator
// advances, over a wire that loses the given share of mid-path hops, so
// sweeps stop part-way, retransmissions run out and sessions interleave.
// Each side is built on a simulator of its own and sees its own copy of
// the wire; the script chooses from its own record of what it did. A
// demand is drawn below 12 on 40 % of adds and is otherwise Inf, or 100
// when finite is set (a log weight of Inf is Inf, and its share NaN).
// check runs after every step and may draw from rng.
func runScript(t *testing.T, seed int64, steps int, loss float64, finite bool, build []func(clock.Clock, ProtocolOptions) scripted, check func(step int, rng *randx.Rand)) {
	rng := randx.New(seed)
	refined := rng.Bernoulli(0.5)
	period := 0.0
	if rng.Bernoulli(0.5) {
		period = 0.05
	}
	sims := make([]*des.Simulator, len(build))
	sides := make([]scripted, len(build))
	for k, b := range build {
		wire := randx.New(seed ^ 0x5eed)
		sims[k] = des.New()
		sides[k] = b(clock.Sim(sims[k]), ProtocolOptions{
			Refined:           refined,
			ReadvertisePeriod: period,
			Deliver: func(_ string, hop int, _ string, _ bool) (bool, float64) {
				return hop > 0 && wire.Bernoulli(loss), 0
			},
		})
	}
	links := make([]string, 3+rng.Intn(3))
	caps := make([]float64, len(links))
	for i := range links {
		links[i] = fmt.Sprintf("l%d", i)
		caps[i] = 1 + rng.Float64()*30
		for _, s := range sides {
			if err := s.AddLink(links[i], caps[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := map[string]bool{}
	universe := make([]string, 14) // "c10" sorts before "c2"
	for i := range universe {
		universe[i] = fmt.Sprintf("c%d", i)
	}
	add := func(id string) {
		path := make([]string, 1+rng.Intn(len(links)))
		for i, k := range rng.Perm(len(links))[:len(path)] {
			path[i] = links[k]
		}
		if rng.Bernoulli(0.2) {
			path = append(path, path[0]) // a repeat AddConn must drop
		}
		demand := Inf
		if rng.Bernoulli(0.4) {
			demand = rng.Float64() * 12
		} else if finite {
			demand = 100
		}
		for _, s := range sides {
			if err := s.AddConn(Conn{ID: id, Path: path, Demand: demand}); err != nil {
				t.Fatal(err)
			}
			s.Kick(id)
		}
		live[id] = true
	}
	now := 0.0
	for step := 0; step < steps; step++ {
		id := universe[rng.Intn(len(universe))]
		on := live[id]
		switch op := rng.Intn(8); {
		case op <= 1 && !on:
			add(id)
		case op == 1:
			for _, s := range sides {
				s.RemoveConn(id)
			}
			delete(live, id)
		case op == 2: // re-add while the old row's session is still in flight
			if on {
				for _, s := range sides {
					s.Kick(id)
					s.RemoveConn(id)
				}
			}
			add(id)
		case op == 3:
			k := rng.Intn(len(links))
			if rng.Bernoulli(0.7) { // else "change" it to what it is
				caps[k] *= 0.25 + rng.Float64()*1.5
			}
			for _, s := range sides {
				if _, err := s.TriggerCapacityChange(k, caps[k]); err != nil {
					t.Fatal(err)
				}
			}
		case op == 4:
			for _, s := range sides {
				s.Kick(id)
			}
		case op == 5 && rng.Bernoulli(0.3):
			for _, s := range sides {
				s.KickAll()
			}
		default: // a session takes ~8 hop delays a round: stop inside one
			now += rng.Float64() * 20e-3
			for _, sim := range sims {
				if err := sim.RunUntil(now); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(step, rng)
	}
}

// checkOfferMemo runs the script on one Protocol. After every step every
// answer a switch remembers — μ_l on the link, the offer on each
// connection's hop — must be the float a fresh computation gives, and
// that must be the two-pass reference's.
func checkOfferMemo(t *testing.T, seed int64, steps int) {
	var pr *Protocol
	build := func(clk clock.Clock, opts ProtocolOptions) scripted {
		pr = NewProtocolOn(clk, opts)
		return pr
	}
	runScript(t, seed, steps, 0.04, false, []func(clock.Clock, ProtocolOptions) scripted{build}, func(step int, rng *randx.Rand) {
		for _, l := range sortx.Keys(pr.byName) {
			ls := pr.byName[l]
			want := referenceAdvertised(ls.capacity, ls.recorded, -1)
			if fresh := ls.advertisedFor(-1); fresh != want {
				t.Fatalf("seed %d step %d: %s kernel μ = %v, reference %v", seed, step, l, fresh, want)
			}
			// A memo the protocol would trust must already be right; only
			// some are refreshed here, so the rest go on ageing.
			if ls.muAt == ls.version && len(ls.rows) > 0 && ls.mu != want {
				t.Fatalf("seed %d step %d: %s remembers μ = %v at version %d, reference %v", seed, step, l, ls.mu, ls.muAt, want)
			}
			if rng.Bernoulli(0.5) {
				if got := ls.advertised(); got != want {
					t.Fatalf("seed %d step %d: %s advertised = %v, reference %v", seed, step, l, got, want)
				}
			}
		}
		for _, id := range sortx.Keys(pr.conns) {
			pc := pr.conns[id]
			for i := range pc.hops {
				h := &pc.hops[i]
				ls, s := pc.row(i)
				if s < 0 {
					t.Fatalf("seed %d step %d: %s has no row on %s", seed, step, id, ls.name)
				}
				want := referenceAdvertised(ls.capacity, ls.recorded, s)
				if fresh := ls.advertisedFor(s); fresh != want {
					t.Fatalf("seed %d step %d: %s on %s kernel offer = %v, reference %v", seed, step, id, ls.name, fresh, want)
				}
				if h.muAt == ls.version && h.mu != want {
					t.Fatalf("seed %d step %d: %s on %s remembers %v at version %d, reference %v", seed, step, id, ls.name, h.mu, h.muAt, want)
				}
				if rng.Bernoulli(0.5) {
					if got := pc.offer(i); got != want {
						t.Fatalf("seed %d step %d: %s on %s offer = %v, reference %v", seed, step, id, ls.name, got, want)
					}
				}
			}
		}
	})
}

func TestOfferMemoMatchesFreshCompute(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkOfferMemo(t, seed, 300)
	}
}

func FuzzOfferMemoMatchesFreshCompute(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(-9), uint16(300))
	f.Add(int64(20261003), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		checkOfferMemo(t, seed, int(steps%2048))
	})
}
