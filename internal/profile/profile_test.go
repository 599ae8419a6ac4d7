package profile

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"armnet/internal/randx"
	"armnet/internal/topology"
)

// arrive notes portable's arrival in c at time t.
func arrive(c *CellProfile, portable string, t float64) {
	c.recordArrival(c.names.Portable(portable), t)
}

// testUniverse builds the universe of a topology spec.
func testUniverse(t *testing.T, spec string) *topology.Universe {
	t.Helper()
	env, err := topology.EnvironmentFromJSON(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return env.Universe
}

// corridors is a spec of corridor cells, each "id" or "id@zone".
func corridors(cells ...string) string {
	var specs []string
	for _, c := range cells {
		id, zone, _ := strings.Cut(c, "@")
		specs = append(specs, fmt.Sprintf(`{"id": %q, "class": "corridor", "zone": %q}`, id, zone))
	}
	return `{"cells": [` + strings.Join(specs, ", ") + `]}`
}

// record reports the portable's handoff, given by IDs, to the server.
func record(s *Server, portable string, h Handoff) {
	x := s.names
	s.RecordHandoff(x.Portable(portable), int(x.lookup(h.Prev)), int(x.lookup(h.From)), int(x.lookup(h.To)), h.Time)
}

// byPortable is PredictByPortable by IDs.
func byPortable(s *Server, portable string, prev, cur topology.CellID) (topology.CellID, bool) {
	x := s.names
	next, ok := s.PredictByPortable(x.Portable(portable), int(x.lookup(prev)), int(x.lookup(cur)))
	return x.cellID(int32(next)), ok
}

// portables returns the IDs of the portables s holds profiles of,
// sorted.
func portables(s *Server) []string {
	var ids []string
	for n, p := range s.portables {
		if p != nil {
			ids = append(ids, s.names.PortableID(n))
		}
	}
	slices.Sort(ids)
	return ids
}

// byCell is PredictByCell by IDs.
func byCell(s *Server, cur, prev topology.CellID) (topology.CellID, bool) {
	x := s.names
	next, ok := s.PredictByCell(int(x.lookup(cur)), int(x.lookup(prev)))
	return x.cellID(int32(next)), ok
}

func TestPortableProfilePredict(t *testing.T) {
	p := NewPortableProfile(10)
	if _, ok := p.Predict("C", "D"); ok {
		t.Fatal("empty profile predicted")
	}
	// 3 handoffs C->D->A, 1 handoff C->D->B.
	for i := 0; i < 3; i++ {
		p.Record(Handoff{Prev: "C", From: "D", To: "A"})
	}
	p.Record(Handoff{Prev: "C", From: "D", To: "B"})
	next, ok := p.Predict("C", "D")
	if !ok || next != "A" {
		t.Fatalf("predict = %v/%v, want A", next, ok)
	}
	// Different prev: unknown -> falls back via predictAnyPrev.
	if _, ok := p.Predict("E", "D"); ok {
		t.Fatal("unknown prev predicted directly")
	}
	anyNext, ok := p.predictAnyPrev(p.names.lookup("D"))
	if next = p.names.cellID(anyNext); !ok || next != "A" {
		t.Fatalf("any-prev predict = %v/%v, want A", next, ok)
	}
}

func TestPortableProfileExpiry(t *testing.T) {
	p := NewPortableProfile(4)
	// Fill with A-predictions, then push them out with B-predictions.
	for i := 0; i < 4; i++ {
		p.Record(Handoff{Prev: "C", From: "D", To: "A"})
	}
	for i := 0; i < 4; i++ {
		p.Record(Handoff{Prev: "C", From: "D", To: "B"})
	}
	if p.history.len() != 4 {
		t.Fatalf("history len = %d, want 4", p.history.len())
	}
	next, ok := p.Predict("C", "D")
	if !ok || next != "B" {
		t.Fatalf("after expiry predict = %v, want B", next)
	}
}

func TestPortableProfileDeterministicTies(t *testing.T) {
	p := NewPortableProfile(10)
	p.Record(Handoff{Prev: "C", From: "D", To: "B"})
	p.Record(Handoff{Prev: "C", From: "D", To: "A"})
	next, ok := p.Predict("C", "D")
	if !ok || next != "A" {
		t.Fatalf("tie broken to %v, want lexicographic A", next)
	}
}

func TestCellProfilePredictAndProbabilities(t *testing.T) {
	c := NewCellProfile("D", 200, 60)
	// From C, departures: 94 to A, 20 to B, 13 to F.
	for i := 0; i < 94; i++ {
		c.RecordDeparture(Handoff{Prev: "C", From: "D", To: "A", Time: float64(i)})
	}
	for i := 0; i < 20; i++ {
		c.RecordDeparture(Handoff{Prev: "C", From: "D", To: "B", Time: float64(i)})
	}
	for i := 0; i < 13; i++ {
		c.RecordDeparture(Handoff{Prev: "C", From: "D", To: "F", Time: float64(i)})
	}
	next, ok := c.Predict("C")
	if !ok || next != "A" {
		t.Fatalf("predict = %v, want A", next)
	}
	probs := c.Probabilities("C")
	if math.Abs(probs["A"]-94.0/127) > 1e-9 {
		t.Fatalf("P(A) = %v, want %v", probs["A"], 94.0/127)
	}
	// Unknown prev falls back to aggregate.
	next, ok = c.Predict("X")
	if !ok || next != "A" {
		t.Fatalf("aggregate predict = %v, want A", next)
	}
	if got := c.Probabilities("X")["A"]; math.Abs(got-94.0/127) > 1e-9 {
		t.Fatalf("aggregate P(A) = %v", got)
	}
}

func TestCellProfileSlots(t *testing.T) {
	c := NewCellProfile("M", 100, 60)
	// Departures at t=10, 70, 75, 130.
	for _, tm := range []float64{10, 70, 75, 130} {
		c.RecordDeparture(Handoff{Prev: "x", From: "M", To: "y", Time: tm})
	}
	if c.DeparturesIn(0) != 1 || c.DeparturesIn(1) != 2 || c.DeparturesIn(2) != 1 {
		t.Fatalf("slot counts = %d %d %d", c.DeparturesIn(0), c.DeparturesIn(1), c.DeparturesIn(2))
	}
	recent := c.RecentDepartures(130, 3)
	if recent[0] != 1 || recent[1] != 2 || recent[2] != 1 {
		t.Fatalf("recent = %v, want [1 2 1]", recent)
	}
	arrive(c, "p1", 65)
	if c.arrivals.at(1) != 1 {
		t.Fatalf("arrivals in slot 1 = %d", c.arrivals.at(1))
	}
}

func TestCellProfileVisitorShare(t *testing.T) {
	c := NewCellProfile("A", 100, 60)
	for i := 0; i < 90; i++ {
		arrive(c, "regular", 0)
	}
	for i := 0; i < 10; i++ {
		arrive(c, fmt.Sprintf("guest%d", i), 0)
	}
	if c.distinct != 11 {
		t.Fatalf("visitors = %d", c.distinct)
	}
	if share := c.topVisitorShare(1); math.Abs(share-0.9) > 1e-9 {
		t.Fatalf("top share = %v", share)
	}
}

func TestServerRecordAndPredictLevels(t *testing.T) {
	s := NewServer("z", NewNumbering(testUniverse(t, corridors("C@z", "D@z", "A@z", "B@z"))), ServerOptions{})
	// Alice's pattern: C->D->A.
	for i := 0; i < 5; i++ {
		record(s, "alice", Handoff{Prev: "", From: "C", To: "D", Time: float64(i)})
		record(s, "alice", Handoff{Prev: "C", From: "D", To: "A", Time: float64(i) + 0.5})
	}
	// Crowd pattern through D goes to B.
	for i := 0; i < 20; i++ {
		record(s, fmt.Sprintf("p%d", i), Handoff{Prev: "C", From: "D", To: "B", Time: float64(i)})
	}
	// Level 1: portable profile wins for alice.
	next, ok := byPortable(s, "alice", "C", "D")
	if !ok || next != "A" {
		t.Fatalf("portable prediction = %v, want A", next)
	}
	// Level 2: cell profile reflects the crowd.
	next, ok = byCell(s, "D", "C")
	if !ok || next != "B" {
		t.Fatalf("cell prediction = %v, want B", next)
	}
	// Unknown portable: no level-1 prediction.
	if _, ok := byPortable(s, "stranger", "C", "D"); ok {
		t.Fatal("stranger predicted at level 1")
	}
	dist := s.HandoffDistribution("D", "C")
	if math.Abs(dist["B"]-20.0/25) > 1e-9 {
		t.Fatalf("distribution = %v", dist)
	}
}

func TestServerIgnoresSelfHandoffs(t *testing.T) {
	s := NewServer("z", NewNumbering(testUniverse(t, corridors("C@z"))), ServerOptions{})
	record(s, "a", Handoff{From: "C", To: "C"})
	if s.Cell("C").history.len() != 0 || len(portables(s)) != 0 {
		t.Fatal("self-handoff recorded")
	}
}

func TestServerExportImport(t *testing.T) {
	x := NewNumbering(testUniverse(t, corridors("C@z1", "D@z1", "E@z2")))
	s1, s2 := NewServer("z1", x, ServerOptions{}), NewServer("z2", x, ServerOptions{})
	record(s1, "alice", Handoff{Prev: "C", From: "D", To: "E", Time: 1})
	alice := x.Portable("alice")
	s1.Handover(alice, s2)
	if got := portables(s1); len(got) != 0 {
		t.Fatalf("z1 kept %v after the handover", got)
	}
	s1.Handover(alice, s2) // nothing left to hand over
	if got := portables(s2); !slices.Equal(got, []string{"alice"}) {
		t.Fatalf("z2 holds %v, want alice", got)
	}
	next, ok := byPortable(s2, "alice", "C", "D")
	if !ok || next != "E" {
		t.Fatalf("imported prediction = %v/%v, want E", next, ok)
	}
}

func TestClassifyOffice(t *testing.T) {
	c := NewCellProfile("A", 500, 60)
	// One regular occupant entering and leaving many times.
	for i := 0; i < 40; i++ {
		arrive(c, "prof", float64(i*100))
		c.RecordDeparture(Handoff{Prev: "D", From: "A", To: "D", Time: float64(i*100 + 50)})
	}
	if got := Classify(c); got != topology.ClassOffice {
		t.Fatalf("classified as %v, want office", got)
	}
}

func TestClassifyCorridor(t *testing.T) {
	c := NewCellProfile("D", 500, 60)
	rng := randx.New(1)
	// Many distinct portables passing straight through: C->D->E and
	// E->D->C.
	for i := 0; i < 120; i++ {
		p := fmt.Sprintf("p%d", i)
		tm := float64(i) * 30
		arrive(c, p, tm)
		if rng.Bernoulli(0.5) {
			c.RecordDeparture(Handoff{Prev: "C", From: "D", To: "E", Time: tm + 5})
		} else {
			c.RecordDeparture(Handoff{Prev: "E", From: "D", To: "C", Time: tm + 5})
		}
	}
	if got := Classify(c); got != topology.ClassCorridor {
		t.Fatalf("classified as %v, want corridor", got)
	}
}

func TestClassifyMeetingRoom(t *testing.T) {
	c := NewCellProfile("M", 500, 60)
	// Handoff bursts around t=0 and t=3600, silence between.
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("s%d", i)
		arrive(c, p, float64(i%5))
		c.RecordDeparture(Handoff{Prev: "c1", From: "M", To: "c1", Time: 3600 + float64(i%5)})
	}
	// A trickle in between so the series is not empty.
	arrive(c, "late", 1800)
	if got := Classify(c); got != topology.ClassMeetingRoom {
		t.Fatalf("classified as %v, want meeting room", got)
	}
}

func TestClassifyCafeteria(t *testing.T) {
	c := NewCellProfile("cafe", 2000, 60)
	rng := randx.New(2)
	// Steady stream of distinct visitors from two directions with
	// balanced onward movement (low directionality), smooth in time.
	n := 0
	for slot := 0; slot < 40; slot++ {
		for k := 0; k < 10; k++ {
			p := fmt.Sprintf("v%d", n)
			n++
			tm := float64(slot*60 + k*6)
			arrive(c, p, tm)
			prev := topology.CellID("c1")
			if rng.Bernoulli(0.5) {
				prev = "c2"
			}
			// Departures split evenly, including back where they came
			// from, so corridor consistency stays low.
			var to topology.CellID
			switch rng.Intn(3) {
			case 0:
				to = "c1"
			case 1:
				to = "c2"
			default:
				to = "c3"
			}
			c.RecordDeparture(Handoff{Prev: prev, From: "cafe", To: to, Time: tm + 30})
		}
	}
	if got := Classify(c); got != topology.ClassCafeteria {
		t.Fatalf("classified as %v, want cafeteria", got)
	}
}

func TestClassifyUnknownWhenSparse(t *testing.T) {
	c := NewCellProfile("x", 100, 60)
	arrive(c, "p", 1)
	if got := Classify(c); got != topology.ClassUnknown {
		t.Fatalf("classified as %v with 1 sample, want unknown", got)
	}
}

// Property: cell-profile probabilities always sum to ~1 when history
// exists, and every probability is in (0, 1].
func TestQuickProbabilitiesNormalized(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := randx.New(seed)
		c := NewCellProfile("D", 50, 60)
		total := int(n%60) + 1
		nexts := []topology.CellID{"A", "B", "F", "G"}
		for i := 0; i < total; i++ {
			c.RecordDeparture(Handoff{
				Prev: "C",
				From: "D",
				To:   nexts[rng.Intn(len(nexts))],
				Time: float64(i),
			})
		}
		probs := c.Probabilities("C")
		sum := 0.0
		for _, p := range probs {
			if p <= 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a profile's history never holds more than its limit, and its
// backing array never grows past it either, however many handoffs go
// through (10× the limit here); and every prediction of the portable and
// the cell profile equals the one a plain slice of the last limit
// handoffs gives.
func TestQuickPortableHistoryBound(t *testing.T) {
	cells := []topology.CellID{"A", "B", "C", "D"}
	// predict is the plain-slice reference: the most frequent next cell
	// among the kept handoffs that match, ties to the smallest ID.
	predict := func(kept []Handoff, match func(Handoff) bool) (topology.CellID, bool) {
		counts := map[topology.CellID]int{}
		for _, h := range kept {
			if match(h) {
				counts[h.To]++
			}
		}
		if len(counts) == 0 {
			return "", false
		}
		return sortedArgmaxCell(counts), true
	}
	f := func(seed int64, n uint8) bool {
		rng := randx.New(seed)
		limit := int(n%20) + 1
		p := NewPortableProfile(limit)
		c := NewCellProfile("A", limit, 60)
		var kept []Handoff
		for i := 0; i < 10*limit; i++ {
			h := Handoff{Prev: cells[rng.Intn(4)], From: cells[rng.Intn(4)], To: cells[rng.Intn(4)]}
			p.Record(h)
			c.RecordDeparture(h)
			if kept = append(kept, h); len(kept) > limit {
				kept = kept[1:]
			}
			if p.history.len() != len(kept) || cap(p.history.buf) > limit || cap(c.history.buf) > limit {
				return false
			}
			for _, prev := range cells {
				for _, cur := range cells {
					got, ok := p.Predict(prev, cur)
					want, wantOK := predict(kept, func(h Handoff) bool { return h.Prev == prev && h.From == cur })
					if got != want || ok != wantOK {
						return false
					}
				}
				got, ok := c.Predict(prev)
				want, wantOK := predict(kept, func(h Handoff) bool { return h.Prev == prev })
				if !wantOK {
					want, wantOK = predict(kept, func(Handoff) bool { return true })
				}
				if got != want || ok != wantOK {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerUnknownCell(t *testing.T) {
	s := NewServer("z", NewNumbering(testUniverse(t, corridors("A@z"))), ServerOptions{})
	if s.Cell("ghost") != nil {
		t.Fatal("unknown cell returned")
	}
	if got := portables(s); len(got) != 0 {
		t.Fatalf("portables = %v", got)
	}
}
