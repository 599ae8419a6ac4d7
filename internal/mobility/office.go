package mobility

import (
	"fmt"

	"armnet/internal/randx"
	"armnet/internal/topology"
)

// officeWeekConfig calibrates the Figure 4 office-scenario generator to
// the measured aggregates of §7.1. The defaults reproduce the paper's
// counts exactly (they are destination decks, not probabilities, so the
// generated trace matches the published totals).
type officeWeekConfig struct {
	// Faculty is the faculty portable's name (regular occupant of office
	// A and of office B).
	Faculty string
	// Students are the student office B occupants.
	Students []string
	// FacultyTransits is the faculty member's C→D transit deck:
	// destinations after reaching D.
	FacultyDeck Deck
	// StudentDeck is shared by the students (218 transits total).
	StudentDeck Deck
	// CrowdDeck is the anonymous background crowd (fresh portable per
	// transit).
	CrowdDeck Deck
	// Horizon is the workweek length in seconds (default 5 days × 8 h).
	Horizon float64
}

const (
	// officeHopGap is the seconds between successive handoffs while
	// walking.
	officeHopGap float64 = 25
	// officeDwellMean is the mean stay, in seconds, at a destination
	// office before returning.
	officeDwellMean float64 = 20 * 60
)

// Deck counts destination outcomes for C→D transits.
type Deck struct {
	ToA     int // continue D→A (faculty office)
	ToB     int // continue D→E→B (student office)
	ToOther int // continue to F or G
}

// total returns the number of transits in the deck.
func (d Deck) total() int { return d.ToA + d.ToB + d.ToOther }

// PaperOfficeWeek returns the §7.1 calibration: faculty 127 transits
// (94 A, 20 B, 13 other), students 218 (12 A, 173 B, 31 other), crowd
// 1384 (39 A, 17 B, 1328 other).
func PaperOfficeWeek(faculty string, students []string) officeWeekConfig {
	return officeWeekConfig{
		Faculty:     faculty,
		Students:    students,
		FacultyDeck: Deck{ToA: 94, ToB: 20, ToOther: 13},
		StudentDeck: Deck{ToA: 12, ToB: 173, ToOther: 31},
		CrowdDeck:   Deck{ToA: 39, ToB: 17, ToOther: 1328},
	}
}

func (c officeWeekConfig) withDefaults() officeWeekConfig {
	if c.Horizon <= 0 {
		c.Horizon = 5 * 8 * 3600
	}
	return c
}

// destination is one planned transit outcome.
type destination int

const (
	destA destination = iota
	destB
	destOther
)

// shuffledDeck expands a Deck into a shuffled destination sequence.
func shuffledDeck(d Deck, rng *randx.Rand) []destination {
	out := make([]destination, 0, d.total())
	for i := 0; i < d.ToA; i++ {
		out = append(out, destA)
	}
	for i := 0; i < d.ToB; i++ {
		out = append(out, destB)
	}
	for i := 0; i < d.ToOther; i++ {
		out = append(out, destOther)
	}
	randx.Shuffle(rng, out)
	return out
}

// OfficeWeek generates the calibrated workweek trace on the Figure 4
// topology. Named portables (faculty, students) perform their whole deck
// as round trips C→D→dest→…→C; crowd transits each use a fresh anonymous
// portable that parks at its destination.
func OfficeWeek(cfg officeWeekConfig, rng *randx.Rand) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Faculty == "" {
		return nil, fmt.Errorf("mobility: faculty name required")
	}
	if cfg.FacultyDeck.total() == 0 && cfg.StudentDeck.total() == 0 && cfg.CrowdDeck.total() == 0 {
		return nil, fmt.Errorf("mobility: all decks empty")
	}
	out := &Trace{}

	// Named personas run their transits sequentially inside the horizon.
	runPersona := func(id string, deck []destination) {
		n := len(deck)
		if n == 0 {
			return
		}
		// Space round-trip starts evenly with jitter.
		slot := cfg.Horizon / float64(n+1)
		w := newWalker(id, "C", rng.Float64()*slot*0.5, out)
		t := w.out.Moves[len(w.out.Moves)-1].Time
		for i, d := range deck {
			start := float64(slot*float64(i)) + float64(rng.Float64()*slot*0.5)
			if start < t {
				start = t
			}
			t = w.walkPath([]topology.CellID{"D"}, start+officeHopGap, officeHopGap)
			switch d {
			case destA:
				t = w.walkPath([]topology.CellID{"A"}, t, officeHopGap)
				t += rng.Exp(1 / officeDwellMean)
				t = w.walkPath([]topology.CellID{"D", "C"}, t, officeHopGap)
			case destB:
				t = w.walkPath([]topology.CellID{"E", "B"}, t, officeHopGap)
				t += rng.Exp(1 / officeDwellMean)
				t = w.walkPath([]topology.CellID{"E", "D", "C"}, t, officeHopGap)
			default:
				target := topology.CellID("F")
				if rng.Bernoulli(0.5) {
					target = "G"
				}
				t = w.walkPath([]topology.CellID{target}, t, officeHopGap)
				t += rng.Exp(1 / officeDwellMean)
				t = w.walkPath([]topology.CellID{"D", "C"}, t, officeHopGap)
			}
		}
	}

	runPersona(cfg.Faculty, shuffledDeck(cfg.FacultyDeck, rng))
	// Students share one deck; split it round-robin.
	if len(cfg.Students) > 0 {
		studentDeck := shuffledDeck(cfg.StudentDeck, rng)
		perStudent := make([][]destination, len(cfg.Students))
		for i, d := range studentDeck {
			k := i % len(cfg.Students)
			perStudent[k] = append(perStudent[k], d)
		}
		for i, id := range cfg.Students {
			runPersona(id, perStudent[i])
		}
	}

	// Crowd: one-shot anonymous transits spread over the horizon.
	crowdDeck := shuffledDeck(cfg.CrowdDeck, rng)
	for i, d := range crowdDeck {
		id := fmt.Sprintf("crowd-%d", i)
		t := rng.Float64() * cfg.Horizon
		w := newWalker(id, "C", t, out)
		t = w.walkPath([]topology.CellID{"D"}, float64(t)+officeHopGap, officeHopGap)
		switch d {
		case destA:
			w.walkPath([]topology.CellID{"A"}, t, officeHopGap)
		case destB:
			w.walkPath([]topology.CellID{"E", "B"}, t, officeHopGap)
		default:
			target := topology.CellID("F")
			if rng.Bernoulli(0.5) {
				target = "G"
			}
			w.walkPath([]topology.CellID{target}, t, officeHopGap)
		}
	}
	out.sort()
	return out, nil
}
