package mobility

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"armnet/internal/des"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// TestTraceSortMatchesReflectiveStable holds Trace.sort to the
// reflective stable sort it replaced, sort.SliceStable with a.Time <
// b.Time, on traces thick with ties (and with −0, ±Inf and NaN times,
// which < leaves unordered): every move must land where the reference
// puts it, so every trace stays byte-identical.
func TestTraceSortMatchesReflectiveStable(t *testing.T) {
	times := []float64{0, math.Copysign(0, -1), 1, 1.5, 2, 30, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := randx.New(7)
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(120)
		pool := times[:3+rng.Intn(len(times)-2)]
		moves := make([]Move, n)
		for i := range moves {
			moves[i] = Move{Portable: fmt.Sprint(i), To: "A", Time: pool[rng.Intn(len(pool))]}
		}
		want := append([]Move(nil), moves...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		tr := &Trace{Moves: moves}
		tr.sort()
		for i := range want {
			if tr.Moves[i].Portable != want[i].Portable {
				t.Fatalf("trial %d: move %d is generation %s, the reflective sort puts %s there", trial, i, tr.Moves[i].Portable, want[i].Portable)
			}
		}
	}
}

func TestTraceSortAndValidate(t *testing.T) {
	tr := &Trace{}
	tr.add(Move{Portable: "p", From: "A", To: "B", Time: 5})
	tr.add(Move{Portable: "p", To: "A", Time: 1})
	tr.sort()
	if tr.Moves[0].Time != 1 {
		t.Fatal("sort failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 5 {
		t.Fatalf("duration = %v", tr.Duration())
	}
}

func TestValidateCatchesBrokenChain(t *testing.T) {
	tr := &Trace{}
	tr.add(Move{Portable: "p", To: "A", Time: 1})
	tr.add(Move{Portable: "p", From: "X", To: "B", Time: 2})
	if err := tr.Validate(); err == nil {
		t.Fatal("broken chain validated")
	}
	tr2 := &Trace{}
	tr2.add(Move{Portable: "p", From: "A", To: "B", Time: 1})
	if err := tr2.Validate(); err == nil {
		t.Fatal("missing placement validated")
	}
}

func TestSchedule(t *testing.T) {
	tr := &Trace{}
	tr.add(Move{Portable: "p", To: "A", Time: 1})
	tr.add(Move{Portable: "p", From: "A", To: "B", Time: 2})
	sim := des.New()
	var got []Move
	tr.Schedule(sim, func(m Move) { got = append(got, m) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].To != "B" {
		t.Fatalf("replayed %v", got)
	}
}

func TestRandomWalk(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RandomWalk(env.Universe, []string{"p1", "p2", "p3"}, 60, 3600, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Moves) < 50 {
		t.Fatalf("walk too short: %d moves", len(tr.Moves))
	}
	// Every move must be between neighbors.
	for _, m := range tr.Moves {
		if m.From == "" {
			continue
		}
		if !env.Universe.Cell(m.From).IsNeighbor(m.To) {
			t.Fatalf("illegal hop %s -> %s", m.From, m.To)
		}
	}
	if _, err := RandomWalk(env.Universe, nil, 0, 10, randx.New(1)); err == nil {
		t.Fatal("zero dwell accepted")
	}
}

// TestRandomWalkRejectsNonFinite: a NaN or infinite dwell or horizon is
// refused with an error. A NaN horizon used to pass the positivity check
// and grow the trace without bound, so each call runs under a deadline.
func TestRandomWalkRejectsNonFinite(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ dwell, horizon float64 }{{60, nan}, {60, inf}, {nan, 600}, {inf, 600}, {60, -inf}} {
		done := make(chan error, 1)
		go func() {
			_, err := RandomWalk(env.Universe, []string{"p1"}, c.dwell, c.horizon, randx.New(1))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("dwell %v, horizon %v accepted", c.dwell, c.horizon)
			}
		case <-time.After(time.Second):
			t.Fatalf("dwell %v, horizon %v: RandomWalk still running after a second", c.dwell, c.horizon)
		}
	}
}

func TestOfficeWeekCalibration(t *testing.T) {
	cfg := PaperOfficeWeek("prof", []string{"s1", "s2", "s3"})
	tr, err := OfficeWeek(cfg, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Faculty outcomes match the paper exactly: 94 / 20 / 13.
	fac := OfficeOutcomes(tr, func(p string) bool { return p == "prof" })
	if fac.ToA != 94 || fac.ToB != 20 || fac.ToOther != 13 {
		t.Fatalf("faculty outcomes = %+v, want 94/20/13", fac)
	}
	// Students: 12 / 173 / 31.
	stu := OfficeOutcomes(tr, func(p string) bool { return strings.HasPrefix(p, "s") && !strings.HasPrefix(p, "crowd") })
	if stu.ToA != 12 || stu.ToB != 173 || stu.ToOther != 31 {
		t.Fatalf("student outcomes = %+v, want 12/173/31", stu)
	}
	// Crowd: 39 / 17 / 1328.
	crowd := OfficeOutcomes(tr, func(p string) bool { return strings.HasPrefix(p, "crowd") })
	if crowd.ToA != 39 || crowd.ToB != 17 || crowd.ToOther != 1328 {
		t.Fatalf("crowd outcomes = %+v, want 39/17/1328", crowd)
	}
	// Total C→D handoffs across everyone. Note: the paper states 218
	// student transits but its components sum to 216 (12+173+31), so the
	// calibrated total is 127 + 216 + 1384 = 1727.
	total := OfficeOutcomes(tr, nil)
	if total.total() != 1727 {
		t.Fatalf("total transits = %d, want 1727", total.total())
	}
}

func TestOfficeWeekValidation(t *testing.T) {
	if _, err := OfficeWeek(officeWeekConfig{}, randx.New(1)); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := officeWeekConfig{Faculty: "f"}
	if _, err := OfficeWeek(cfg, randx.New(1)); err == nil {
		t.Fatal("all-empty decks accepted")
	}
}

func TestMeetingClassShape(t *testing.T) {
	cfg := MeetingClassConfig{
		Students: 35,
		Start:    3600,
		End:      3600 + 50*60,
		WalkBys:  200,
	}
	cfg.Horizon = cfg.End + 1800
	tr, err := MeetingClass(cfg, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// All 35 students enter M; nobody else does.
	intoM := 0
	for _, m := range tr.Moves {
		if m.To == "M" {
			intoM++
			if !strings.HasPrefix(m.Portable, "stu-") {
				t.Fatalf("non-student entered the room: %s", m.Portable)
			}
		}
	}
	if intoM != 35 {
		t.Fatalf("entries into M = %d, want 35", intoM)
	}
	// Arrivals into M are bunched in the 10-minute window around start.
	series := HandoffSeries(tr, "M", In, 60, cfg.Horizon)
	inWindow := 0
	for s := int((cfg.Start - 480) / 60); s <= int((cfg.Start+120)/60); s++ {
		inWindow += series[s]
	}
	if inWindow != 35 {
		t.Fatalf("arrivals in window = %d, want 35", inWindow)
	}
	// Departures bunch after End.
	out := HandoffSeries(tr, "M", Out, 60, cfg.Horizon)
	outWindow := 0
	for s := int(cfg.End / 60); s <= int((cfg.End+300)/60); s++ {
		outWindow += out[s]
	}
	if outWindow != 35 {
		t.Fatalf("departures in window = %d, want 35", outWindow)
	}
	// Walk-by activity exists at corr1 but never enters M.
	touch := HandoffSeries(tr, "corr1", Touch, 60, cfg.Horizon)
	totalTouch := 0
	for _, v := range touch {
		totalTouch += v
	}
	if totalTouch < 200 {
		t.Fatalf("corridor activity = %d, want at least the walk-bys", totalTouch)
	}
}

func TestMeetingClassValidation(t *testing.T) {
	if _, err := MeetingClass(MeetingClassConfig{Students: 0, Start: 3600, End: 7200}, randx.New(1)); err == nil {
		t.Fatal("zero students accepted")
	}
	if _, err := MeetingClass(MeetingClassConfig{Students: 5, Start: 3600, End: 3600}, randx.New(1)); err == nil {
		t.Fatal("zero-length meeting accepted")
	}
	if _, err := MeetingClass(MeetingClassConfig{Students: 5, Start: 100, End: 7200}, randx.New(1)); err == nil {
		t.Fatal("start inside arrival window accepted")
	}
}

// Property: OfficeWeek traces are always chain-valid and exactly
// calibrated for any seed.
func TestQuickOfficeWeekAlwaysCalibrated(t *testing.T) {
	f := func(seed int64) bool {
		cfg := officeWeekConfig{
			Faculty:     "f",
			Students:    []string{"s1", "s2"},
			FacultyDeck: Deck{ToA: 9, ToB: 2, ToOther: 1},
			StudentDeck: Deck{ToA: 1, ToB: 17, ToOther: 3},
			CrowdDeck:   Deck{ToA: 4, ToB: 2, ToOther: 30},
			Horizon:     8 * 3600,
		}
		tr, err := OfficeWeek(cfg, randx.New(seed))
		if err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		fac := OfficeOutcomes(tr, func(p string) bool { return p == "f" })
		return fac == cfg.FacultyDeck
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: HandoffSeries conserves handoffs (sum over In-series of all
// cells equals total non-placement moves within the horizon).
func TestQuickHandoffSeriesConserves(t *testing.T) {
	f := func(seed int64) bool {
		env, err := topology.BuildCampus()
		if err != nil {
			return false
		}
		tr, err := RandomWalk(env.Universe, []string{"a", "b"}, 30, 600, randx.New(seed))
		if err != nil {
			return false
		}
		total := 0
		for _, m := range tr.Moves {
			if m.From != "" && m.Time < 600 {
				total++
			}
		}
		sum := 0
		for _, c := range env.Universe.Cells() {
			for _, v := range HandoffSeries(tr, c.ID, In, 60, 600) {
				sum += v
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
