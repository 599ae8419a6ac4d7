package clock

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"armnet/internal/des"
	"armnet/internal/leakcheck"
	"armnet/internal/raceflag"
)

// granule is the oracle's time unit: a power of two (1/128 s, 7.8 ms),
// so every nominal deadline is an exact binary sum and a tie on the
// simulator is a tie on the Wall; distinct deadlines are a granule or
// more apart.
const granule = 1.0 / 128

// step is one timer of an oracle program: scheduled with delay granules
// (the period, for a ticker), recording its label when it fires,
// canceling the handles labelled in cancel, scheduling kids from its
// callback (a ticker's first tick only) and, in the hand-built stall
// row, sleeping stall granules of real time.
type step struct {
	label  int
	kind   stepKind
	delay  int
	cancel []int
	kids   []step
	stall  int
}

type stepKind int

const (
	stepAfter stepKind = iota
	stepPost
	stepEvery
)

// genSteps builds a random program level: timers with delays from a
// small set (so siblings tie on purpose), cancels of earlier handles,
// kids down to depth 2, and for every ticker a sibling that cancels it
// a few periods on.
func genSteps(rng *rand.Rand, depth int, label *int, handles *[]int) []step {
	var out []step
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		*label++
		st := step{label: *label, kind: stepKind(rng.Intn(3)), delay: []int{0, 1, 2, 2, 3, 5}[rng.Intn(6)]}
		if st.kind == stepEvery {
			st.delay = 3 + rng.Intn(3)
		}
		if len(*handles) > 0 && rng.Intn(3) == 0 {
			st.cancel = append(st.cancel, (*handles)[rng.Intn(len(*handles))])
		}
		if depth < 2 && rng.Intn(2) == 0 {
			st.kids = genSteps(rng, depth+1, label, handles)
		}
		if st.kind != stepPost {
			*handles = append(*handles, st.label)
		}
		out = append(out, st)
		if st.kind == stepEvery {
			*label++
			out = append(out, step{label: *label, kind: stepAfter, delay: st.delay * (2 + rng.Intn(3)), cancel: []int{st.label}})
		}
	}
	return out
}

// player runs a program on one clock and records the firing order as
// "label@nominal time in granules" (a ticker's label carries its tick
// number).
type player struct {
	clk     Clock
	now     func() float64 // the firing callback's nominal instant
	horizon float64
	rec     []string
	handles map[int]Timer
	// stall runs a stalling callback: the Wall sleeps it; the simulator,
	// which cannot, records the window whose ticks the Wall must drop.
	stall func(granules int)
	// dropFrom and dropTo bound that window; a ticker keeps the first
	// tick due in it (late) and loses the rest, as time.Ticker does.
	dropFrom, dropTo float64
	lateTaken        map[int]bool
}

func (p *player) play(steps []step) {
	for _, st := range steps {
		st := st
		d := float64(st.delay) * granule
		ticks := 0
		fire := func() {
			t := p.now()
			if st.kind == stepEvery && p.dropTo > 0 && t > p.dropFrom && t <= p.dropTo {
				if p.lateTaken[st.label] {
					return
				}
				p.lateTaken[st.label] = true
			}
			ticks++
			if t <= p.horizon {
				p.rec = append(p.rec, fmt.Sprintf("%d.%d@%g", st.label, ticks, t/granule))
			}
			for _, c := range st.cancel {
				if h := p.handles[c]; h != nil {
					h.Cancel()
				}
			}
			if st.stall > 0 {
				p.stall(st.stall)
			}
			if ticks == 1 {
				p.play(st.kids)
			}
		}
		switch st.kind {
		case stepAfter:
			p.handles[st.label] = p.clk.After(d, fire)
		case stepPost:
			p.clk.PostAfter(d, fire)
		case stepEvery:
			p.handles[st.label] = p.clk.Every(d, fire)
		}
	}
}

// nominalWall drives a Wall on the simulator's time line: a timer is
// due at the nominal instant of the callback that scheduled it plus its
// delay, not at the wall reading plus the delay, so ties are exact and
// the firing order is a function of the program alone. It goes through
// the same schedule, heap and dispatcher as After, PostAfter and Every.
type nominalWall struct {
	w   *Wall
	now float64 // nominal instant of the running callback; under w.mu
}

func (c *nominalWall) Now() float64 { return c.now }

func (c *nominalWall) at(t float64, fn func()) func() {
	return func() { c.now = t; fn() }
}

func (c *nominalWall) After(d float64, fn func()) Timer {
	return wallTimer{c.w, c.w.schedule(c.now+d, 0, c.at(c.now+d, fn))}
}

func (c *nominalWall) PostAfter(d float64, fn func()) {
	c.w.schedule(c.now+d, 0, c.at(c.now+d, fn))
}

func (c *nominalWall) Every(period float64, fn func()) Timer {
	next := c.now + period
	return wallTimer{c.w, c.w.schedule(next, period, func() {
		c.now = next
		fn()
		next = nextTick(next, period, c.w.Now()) // as the dispatcher re-arms
	})}
}

// runOracle plays prog on clock.Sim(des.New()) and on a fresh Wall and
// returns both firing orders up to the horizon.
func runOracle(t *testing.T, prog []step, horizon float64) (sim, wall []string) {
	t.Helper()
	s := des.New()
	sp := &player{clk: Sim(s), now: s.Now, horizon: horizon, handles: map[int]Timer{}, lateTaken: map[int]bool{}}
	sp.stall = func(g int) {
		sp.dropFrom, sp.dropTo = s.Now(), s.Now()+float64(g)*granule
	}
	sp.play(prog)
	if err := s.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}

	w := NewWall()
	defer w.Stop()
	nw := &nominalWall{w: w}
	wp := &player{clk: nw, now: nw.Now, horizon: horizon, handles: map[int]Timer{}}
	wp.stall = func(g int) { time.Sleep(time.Duration(float64(g) * granule * float64(time.Second))) }
	var base float64
	w.Run(func() {
		// A whole granule ahead, so no deadline is past before the
		// program is in the heap.
		base = math.Ceil(w.Now()/granule)*granule + granule
		nw.now = base
		wp.play(prog)
	})
	end := base + horizon + 2*granule
	for w.Now() < end {
		time.Sleep(time.Duration((end - w.Now()) * float64(time.Second)))
	}
	w.Stop()
	w.Run(func() {
		for i, r := range wp.rec {
			var label, tick int
			var at float64
			fmt.Sscanf(r, "%d.%d@%g", &label, &tick, &at)
			wp.rec[i] = fmt.Sprintf("%d.%d@%g", label, tick, at-base/granule)
		}
		wall = slices.Clone(wp.rec)
	})
	return sp.rec, wall
}

// TestWallOrderMatchesSim is the Wall's order oracle: seeded random
// programs of After, PostAfter, Every and Cancel — deadlines a granule
// or more apart, deliberate ties, timers scheduled from inside
// callbacks — fire in the same order on the Wall as on the simulator.
// The stall row holds a callback past two ticks of a ticker: the Wall
// fires the first missed tick late and drops the next, as time.Ticker
// does, where the simulator, which cannot stall, fires them all.
func TestWallOrderMatchesSim(t *testing.T) {
	const horizon = 48 * granule
	rows := map[string][]step{
		"stall": {
			{label: 1, kind: stepEvery, delay: 4},
			{label: 2, kind: stepAfter, delay: 6, stall: 8},
			{label: 3, kind: stepPost, delay: 9},
			{label: 4, kind: stepAfter, delay: 13},
			{label: 5, kind: stepAfter, delay: 22, cancel: []int{1}},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		label := 0
		var handles []int
		rows[fmt.Sprintf("seed%d", seed)] = genSteps(rand.New(rand.NewSource(seed)), 0, &label, &handles)
	}
	for name, prog := range rows {
		prog := prog
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim, wall := runOracle(t, prog, horizon)
			if len(sim) < 5 {
				t.Fatalf("program fired only %v", sim)
			}
			if !slices.Equal(sim, wall) {
				t.Fatalf("firing order diverges\n sim:  %v\n wall: %v", sim, wall)
			}
		})
	}
}

// TestWallStop is the Wall's lifecycle table: every row must leave no
// goroutine behind, and nothing may fire after Stop.
func TestWallStop(t *testing.T) {
	never := func(t *testing.T) func() { return func() { t.Error("a timer fired after Stop") } }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, w *Wall)
	}{
		{"start and stop", func(t *testing.T, w *Wall) {
			done := make(chan struct{})
			w.PostAfter(0.001, func() { close(done) })
			<-done
			w.Stop()
		}},
		{"several stops", func(t *testing.T, w *Wall) {
			w.After(3600, never(t))
			w.Stop()
			w.Stop()
			w.Stop()
		}},
		{"pending timers and a ticker", func(t *testing.T, w *Wall) {
			ticked := make(chan struct{}, 1)
			var mu sync.Mutex
			stopped := false
			w.After(3600, never(t))
			w.PostAfter(0.05, never(t))
			w.Every(0.001, func() {
				mu.Lock()
				defer mu.Unlock()
				if stopped {
					t.Error("the ticker fired after Stop")
				}
				select {
				case ticked <- struct{}{}:
				default:
				}
			})
			<-ticked
			w.Stop()
			mu.Lock()
			stopped = true
			mu.Unlock()
			w.PostAfter(0, never(t))
			w.Every(0.001, never(t)).Cancel()
			time.Sleep(60 * time.Millisecond)
		}},
		{"stop from a callback", func(t *testing.T, w *Wall) {
			done := make(chan struct{})
			w.After(3600, never(t))
			w.PostAfter(0, func() {
				w.Stop()
				w.PostAfter(0, never(t))
				close(done)
			})
			<-done
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := leakcheck.Take()
			w := NewWall()
			tc.run(t, w)
			if err := base.Settled(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWallNoGoroutineUntilScheduled pins that a Wall used only as a
// time source, as a testnet node's is, starts no goroutine.
func TestWallNoGoroutineUntilScheduled(t *testing.T) {
	base := leakcheck.Take()
	w := NewWall()
	for i := 0; i < 100; i++ {
		w.Run(func() { _ = w.Now() })
	}
	if n := leakcheck.Take(); n > base {
		t.Fatalf("%d goroutines after reading the clock, baseline %d", n, base)
	}
}

// TestWallPostAfterAllocFree pins the live timer path: on a warm Wall,
// PostAfter of a pre-built callback and its firing allocate nothing —
// the entry is held in the heap by value, the dispatcher sleeps on one
// reused timer, and restarting it builds no closure.
func TestWallPostAfterAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	w := NewWall()
	defer w.Stop()
	done := make(chan struct{}, 1)
	fn := func() { done <- struct{}{} }
	post := func() {
		w.PostAfter(0, fn)
		<-done
		w.PostAfter(0.0002, fn)
		<-done
	}
	post() // warm: the heap's backing array and the dispatcher's timer
	if n := testing.AllocsPerRun(200, post); n != 0 {
		t.Fatalf("PostAfter + firing = %v allocs, want 0", n)
	}
}

// BenchmarkWallPostAfter times one PostAfter and its firing on a warm
// Wall: the per-callback cost of every live protocol timer.
func BenchmarkWallPostAfter(b *testing.B) {
	w := NewWall()
	defer w.Stop()
	done := make(chan struct{}, 1)
	fn := func() { done <- struct{}{} }
	w.PostAfter(0, fn)
	<-done
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.PostAfter(0, fn)
		<-done
	}
}
