package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// heapSim is the simulator as it stood before the fixed-delay lanes:
// every event, absolute or relative, goes through the one four-ary heap.
// It is the oracle the lanes are held to — same (time, seq) order, same
// discarding of canceled events at the front, same RunUntil.
type heapSim struct {
	now   float64
	seq   uint64
	queue eventQueue
	fired uint64
}

func (s *heapSim) Now() float64                   { return s.now }
func (s *heapSim) Fired() uint64                  { return s.fired }
func (s *heapSim) Pending() int                   { return len(s.queue) }
func (s *heapSim) Post(t float64, fn func())      { s.schedule(t, fn) }
func (s *heapSim) PostAfter(d float64, fn func()) { s.schedule(s.now+d, fn) }

func (s *heapSim) at(t float64, fn func()) canceler    { return s.schedule(t, fn) }
func (s *heapSim) after(d float64, fn func()) canceler { return s.schedule(s.now+d, fn) }

func (s *heapSim) schedule(t float64, fn func()) *Event {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("heapSim: schedule at %v, now %v", t, s.now))
	}
	e := &Event{time: t, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(e)
	return e
}

func (s *heapSim) step() bool {
	for len(s.queue) > 0 {
		e := s.queue.popMin()
		if e.cancel {
			continue
		}
		s.now = e.time
		s.fired++
		e.fn()
		return true
	}
	return false
}

func (s *heapSim) RunUntil(horizon float64) error {
	if horizon < s.now {
		return fmt.Errorf("heapSim: horizon %v before now %v", horizon, s.now)
	}
	for {
		for len(s.queue) > 0 && s.queue[0].cancel {
			s.queue.popMin()
		}
		if len(s.queue) == 0 || s.queue[0].time > horizon {
			s.now = horizon
			return nil
		}
		s.step()
	}
}

// heapTicker is Ticker on the oracle.
type heapTicker struct {
	ev   *Event
	done bool
}

func (t *heapTicker) Cancel() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

func (s *heapSim) every(period float64, fn func()) canceler {
	t := &heapTicker{}
	var tick func()
	tick = func() {
		if t.done {
			return
		}
		fn()
		if !t.done {
			t.ev = s.schedule(s.now+period, tick)
		}
	}
	t.ev = s.schedule(s.now+period, tick)
	return t
}

// canceler is what At, After and Every hand back.
type canceler interface{ Cancel() }

// engine is the surface an oracle program drives, implemented by the
// oracle and (through laneSim) by the Simulator under test.
type engine interface {
	Now() float64
	Fired() uint64
	Pending() int
	Post(t float64, fn func())
	PostAfter(d float64, fn func())
	RunUntil(horizon float64) error
	at(t float64, fn func()) canceler
	after(d float64, fn func()) canceler
	every(period float64, fn func()) canceler
	step() bool
}

type laneSim struct{ *Simulator }

func (s laneSim) at(t float64, fn func()) canceler         { return s.At(t, fn) }
func (s laneSim) after(d float64, fn func()) canceler      { return s.After(d, fn) }
func (s laneSim) every(period float64, fn func()) canceler { return s.Every(period, fn) }

// oracleDelays is the small delay set: more delays than lanes, so lanes
// fill, collide and are handed new delays; 0.1+0.2 is no short decimal,
// and the absolute times an oracle program schedules are drawn from the
// same set, so a lane that took an absolute-time event would see it out
// of order.
var oracleDelays = [...]float64{0.004, 0.008, 0.012, 0.5, 1, 0.1 + 0.2, 3, 0}

// firing is what one fired event saw.
type firing struct {
	label   int
	now     float64
	fired   uint64
	pending int
}

// oracleWorld is one engine running an oracle program: the handles it
// was given, the firings it logged and the events callbacks may still
// schedule.
type oracleWorld struct {
	eng     engine
	handles []canceler
	log     []firing
	labels  int
	budget  int
}

// mix is splitmix64's finalizer: callbacks draw their behaviour from
// their label, identically in both worlds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// delay draws a relative delay: three times in four from the small set,
// else from a continuous range.
func delay(x uint64) float64 {
	if x%4 != 0 {
		return oracleDelays[x>>2%uint64(len(oracleDelays))]
	}
	return float64(x>>8%10000) / 3000
}

// absTime draws an absolute time no earlier than now: half the time a
// value of the delay set itself when that is not in the past.
func (w *oracleWorld) absTime(x uint64) float64 {
	if x%2 == 0 {
		if t := oracleDelays[x>>1%uint64(len(oracleDelays))]; t >= w.eng.Now() {
			return t
		}
	}
	return w.eng.Now() + delay(x>>4)
}

// period draws a positive ticker period.
func period(x uint64) float64 {
	if d := delay(x); d > 0 {
		return d
	}
	return 0.25
}

// callback returns the body of event label: log what it sees, then —
// while budget lasts — schedule up to two more events, and now and then
// cancel a handle or stop the run.
func (w *oracleWorld) callback(label int) func() {
	return func() {
		w.fire(label, mix(uint64(label)))
	}
}

func (w *oracleWorld) fire(label int, h uint64) {
	w.log = append(w.log, firing{label, w.eng.Now(), w.eng.Fired(), w.eng.Pending()})
	if w.budget > 0 {
		w.budget--
		for k := h % 3; k > 0; k-- {
			h = mix(h)
			w.schedule(h%4, h>>2)
		}
	}
	if h>>50%8 == 0 && len(w.handles) > 0 {
		w.handles[h>>20%uint64(len(w.handles))].Cancel()
	}
}

// schedule posts one labelled event: At, After, Post or PostAfter.
func (w *oracleWorld) schedule(kind, x uint64) {
	label := w.labels
	w.labels++
	fn := w.callback(label)
	switch kind {
	case 0:
		w.handles = append(w.handles, w.eng.at(w.absTime(x), fn))
	case 1:
		w.handles = append(w.handles, w.eng.after(delay(x), fn))
	case 2:
		w.eng.Post(w.absTime(x), fn)
	default:
		w.eng.PostAfter(delay(x), fn)
	}
}

// startTicker starts a ticker that logs each tick under its label and
// cancels itself after one to six ticks.
func (w *oracleWorld) startTicker(x uint64) {
	label := w.labels
	w.labels++
	ticks := 0
	var tk canceler
	tk = w.eng.every(period(x), func() {
		ticks++
		h := mix(uint64(label)<<8 | uint64(ticks))
		w.fire(label, h)
		if ticks > int(h%6) {
			tk.Cancel()
		}
	})
	w.handles = append(w.handles, tk)
}

// op runs one top-level program operation and returns what it reported
// beyond the log: a step's bool or RunUntil's error.
func (w *oracleWorld) op(code, x uint64) string {
	switch code % 8 {
	case 0, 1, 2, 3:
		w.schedule(code%8, x)
	case 4:
		w.startTicker(x)
	case 5:
		if len(w.handles) > 0 {
			w.handles[x%uint64(len(w.handles))].Cancel()
		}
	case 6:
		return fmt.Sprint(w.eng.RunUntil(w.eng.Now() + delay(x)))
	default:
		out := ""
		for n := 0; n <= int(x%8); n++ {
			out += fmt.Sprint(w.eng.step())
		}
		return out
	}
	return ""
}

// runOracle runs prog — pairs of (operation, argument) bytes, then a
// drain — on a Simulator and on the heap-only oracle, failing at the
// first firing, clock, Fired or Pending value that differs.
func runOracle(t testing.TB, prog []byte, observe func(*Simulator)) {
	t.Helper()
	sim := New()
	lanes := &oracleWorld{eng: laneSim{sim}, budget: 300}
	ref := &oracleWorld{eng: &heapSim{}, budget: 300}
	checked := 0
	check := func(what string, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: lanes %s, heap %s", what, got, want)
		}
		if len(lanes.log) != len(ref.log) {
			t.Fatalf("after %s: lanes fired %d events, heap %d", what, len(lanes.log), len(ref.log))
		}
		for ; checked < len(ref.log); checked++ {
			if g, w := lanes.log[checked], ref.log[checked]; g != w {
				t.Fatalf("after %s, firing %d: lanes %+v, heap %+v", what, checked, g, w)
			}
		}
		if g, w := lanes.eng, ref.eng; g.Now() != w.Now() || g.Fired() != w.Fired() || g.Pending() != w.Pending() {
			t.Fatalf("after %s: lanes now=%v fired=%d pending=%d, heap now=%v fired=%d pending=%d",
				what, g.Now(), g.Fired(), g.Pending(), w.Now(), w.Fired(), w.Pending())
		}
		if observe != nil {
			observe(sim)
		}
	}
	for i := 0; i+1 < len(prog); i += 2 {
		x := mix(uint64(prog[i+1]) | uint64(i)<<8)
		what := fmt.Sprintf("op %d (code %d)", i/2, prog[i]%8)
		check(what, lanes.op(uint64(prog[i]), x), ref.op(uint64(prog[i]), x))
	}
	check("drain", fmt.Sprint(lanes.eng.RunUntil(lanes.eng.Now()+10)), fmt.Sprint(ref.eng.RunUntil(ref.eng.Now()+10)))
	for n := 0; n < 5000; n++ {
		got, want := lanes.eng.step(), ref.eng.step()
		check("drain step", fmt.Sprint(got), fmt.Sprint(want))
		if !want {
			return
		}
	}
}

// oracleProgram is a random program of n operations.
func oracleProgram(rng *rand.Rand, n int) []byte {
	prog := make([]byte, 2*n)
	rng.Read(prog)
	return prog
}

// TestLanesMatchHeapOracle runs random programs of At / After / Post /
// PostAfter / Every / Cancel / Stop / RunUntil / step, whose callbacks
// schedule more events, on the Simulator and on the heap-only oracle:
// after every step the fired label, Now, Fired and Pending are equal.
// It also checks the programs reach the cases that matter: every lane
// occupied at once, and a lane handed a second delay after it drained.
func TestLanesMatchHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full, rekeyed := false, false
	keys := [laneCount]map[uint64]bool{}
	for i := range keys {
		keys[i] = map[uint64]bool{}
	}
	observe := func(s *Simulator) {
		full = full || s.occupied == 1<<laneCount-1
		for i, l := range s.lanes {
			if l.n > 0 {
				keys[i][l.key] = true
				rekeyed = rekeyed || len(keys[i]) > 1
			}
		}
	}
	for i := 0; i < 400; i++ {
		prog := oracleProgram(rng, 20+rng.Intn(100))
		t.Run(fmt.Sprint(i), func(t *testing.T) { runOracle(t, prog, observe) })
		if t.Failed() {
			return
		}
	}
	if !full || !rekeyed {
		t.Fatalf("programs never reached the lane edge cases: all lanes full %v, a lane re-keyed %v", full, rekeyed)
	}
}

// FuzzLanesMatchHeapOracle is TestLanesMatchHeapOracle over arbitrary
// programs.
func FuzzLanesMatchHeapOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(oracleProgram(rng, 10+20*i))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2000 {
			prog = prog[:2000]
		}
		runOracle(t, prog, nil)
	})
}
