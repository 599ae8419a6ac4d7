package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if err := s.Run(); err != nil {
		t.Fatalf("Run on empty simulator: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(2.5, func() {
		if s.Now() != 2.5 {
			t.Errorf("Now inside event = %v, want 2.5", s.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2.5 {
		t.Fatalf("final Now = %v, want 2.5", s.Now())
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var fired float64 = -1
	s.At(3, func() {
		s.After(2, func() { fired = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("After fired at %v, want 5", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	New().At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	e.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	victim := s.At(2, func() { fired = true })
	s.At(1, func() { victim.Cancel() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event canceled at t=1 still fired at t=2")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %v, want horizon 2.5", s.Now())
	}
	// Resume to the end.
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("after resume fired %v, want 4 events", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
}

func TestRunUntilBackwardErrors(t *testing.T) {
	s := New()
	s.At(1, func() {})
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(1); err == nil {
		t.Fatal("RunUntil into the past did not error")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(2, func() { fired = true })
	if err := s.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var times []float64
	var tk *Ticker
	tk = s.Every(1.5, func() {
		times = append(times, s.Now())
		if len(times) == 4 {
			tk.Cancel()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 3, 4.5, 6}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired %v, want %v", times, want)
		}
	}
}

func TestTickerCancelBeforeFirstFire(t *testing.T) {
	s := New()
	fired := 0
	tk := s.Every(10, func() { fired++ })
	tk.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("canceled ticker fired")
	}
}

func TestBadTickerPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	New().Every(0, func() {})
}

func TestFiredAndPendingCounters(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d, want 2, 0", s.Fired(), s.Pending())
	}
}

// Property: for any set of schedule times, events fire in nondecreasing
// time order and the total count matches.
func TestQuickEventOrderInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 100
			s.At(at, func() { fired = append(fired, at) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving schedule/cancel operations never fires a canceled
// event and fires every non-canceled one.
func TestQuickCancelInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		total := int(n%64) + 1
		firedCount := 0
		canceled := 0
		for i := 0; i < total; i++ {
			e := s.At(rng.Float64()*100, func() { firedCount++ })
			if rng.Intn(3) == 0 {
				e.Cancel()
				canceled++
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		return firedCount == total-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilNaNHorizon: a NaN horizon is refused with an error before
// anything fires. It used to pass the horizon < Now guard and fire
// every event, so with a ticker RunUntil never returned; the ticker
// here fails the test after a thousand ticks instead.
func TestRunUntilNaNHorizon(t *testing.T) {
	s := New()
	ticks := 0
	s.Every(1, func() {
		if ticks++; ticks == 1000 {
			t.Fatal("RunUntil(NaN) fired a thousand ticks")
		}
	})
	err := s.RunUntil(math.NaN())
	if err == nil || s.Fired() != 0 || s.Now() != 0 {
		t.Fatalf("RunUntil(NaN) = %v with %d fired, now %v; want a refusal with nothing fired", err, s.Fired(), s.Now())
	}
}
