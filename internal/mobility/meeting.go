package mobility

import (
	"fmt"

	"armnet/internal/randx"
	"armnet/internal/topology"
)

// OfficeOutcomes classifies each C→D transit of portables accepted by
// pred by its eventual destination — the way §7.1 reports its counts
// ("94 handoffs into cell A", "20 into cell B (D to E to B)"). A transit
// ends when the portable reaches A, B, F or G, or returns to C.
func OfficeOutcomes(t *Trace, pred func(portable string) bool) Deck {
	byPortable := map[string][]Move{}
	for _, m := range t.Moves {
		if pred == nil || pred(m.Portable) {
			byPortable[m.Portable] = append(byPortable[m.Portable], m)
		}
	}
	var d Deck
	for _, moves := range byPortable {
		for i := 0; i < len(moves); i++ {
			if !(moves[i].From == "C" && moves[i].To == "D") {
				continue
			}
		walk:
			for j := i + 1; j < len(moves); j++ {
				switch moves[j].To {
				case "A":
					d.ToA++
					break walk
				case "B":
					d.ToB++
					break walk
				case "F", "G":
					d.ToOther++
					break walk
				case "C":
					break walk // bounced back without entering anywhere
				}
			}
		}
	}
	return d
}

// MeetingClassConfig drives the §7.1 classroom scenario on the
// BuildMeetingWing topology (room M off corridor corr1).
type MeetingClassConfig struct {
	// Students is the class size (paper: 35 lecture, 55 laboratory).
	Students int
	// Start and End are the meeting times T_s, T_a in seconds.
	Start, End float64
	// WalkBys is the number of corridor transits (corr0→corr1→corr2 or
	// the reverse) that pass the room without entering, spread over the
	// scenario; these are what make brute-force reservation wasteful.
	WalkBys int
	// WalkByPeak concentrates half of the walk-bys into the class-change
	// windows around Start and End when true, matching Figure 5's
	// "total handoff activity" curves.
	WalkByPeak bool
	// Horizon is the scenario length; default End + 1800.
	Horizon float64
}

const (
	// meetingArriveSpread is the σ of the arrival bunching around Start
	// (paper: arrivals aggregate in ~10 minutes).
	meetingArriveSpread = 150
	// meetingDepartSpread is the σ of departures after End (paper: ~5
	// minutes).
	meetingDepartSpread = 90
	// meetingHopGap is seconds between handoffs while walking.
	meetingHopGap = 20
)

func (c MeetingClassConfig) withDefaults() MeetingClassConfig {
	if c.Horizon <= 0 {
		c.Horizon = c.End + 1800
	}
	return c
}

// MeetingClass generates the classroom trace: students walk
// corr0→corr1→M bunched around Start and leave M→corr1→corr0 after End;
// walk-by portables pass corr0→corr1→corr2 (or reverse) without entering.
// Student portables are named "stu-<i>", walk-bys "wb-<i>".
func MeetingClass(cfg MeetingClassConfig, rng *randx.Rand) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Students <= 0 {
		return nil, fmt.Errorf("mobility: class needs students, got %d", cfg.Students)
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("mobility: meeting ends before it starts")
	}
	if cfg.Start < 600 {
		return nil, fmt.Errorf("mobility: start %v leaves no room for the arrival window", cfg.Start)
	}
	out := &Trace{}
	for i := 0; i < cfg.Students; i++ {
		id := fmt.Sprintf("stu-%d", i)
		// Enter the room around Start: target M-arrival bunched in the
		// 10-minute window [Start-480, Start+120].
		arriveAtM := rng.TruncNormal(cfg.Start-120, meetingArriveSpread, cfg.Start-480, cfg.Start+120)
		appear := arriveAtM - 2*meetingHopGap
		w := newWalker(id, "corr0", appear, out)
		w.walkPath([]topology.CellID{"corr1", "M"}, appear+meetingHopGap, meetingHopGap)
		// Leave after End within ~5 minutes, through a random exit.
		leave := rng.TruncNormal(cfg.End+60, meetingDepartSpread, cfg.End, cfg.End+300)
		exit := []topology.CellID{"corr0", "corr1", "corr2"}[rng.Intn(3)]
		w.walkPath([]topology.CellID{exit}, leave, meetingHopGap)
	}
	for i := 0; i < cfg.WalkBys; i++ {
		id := fmt.Sprintf("wb-%d", i)
		var t float64
		if cfg.WalkByPeak && i%2 == 0 {
			// Class-change bursts around Start and End.
			center := cfg.Start
			if i%4 == 0 {
				center = cfg.End
			}
			t = rng.TruncNormal(center, 240, 0, cfg.Horizon)
		} else {
			t = rng.Float64() * cfg.Horizon
		}
		path := []topology.CellID{"corr0", "corr1", "corr2"}
		if rng.Bernoulli(0.5) {
			path = []topology.CellID{"corr2", "corr1", "corr0"}
		}
		w := newWalker(id, path[0], t, out)
		w.walkPath(path[1:], t+meetingHopGap, meetingHopGap)
	}
	out.sort()
	return out, nil
}

// HandoffSeries bins the trace's handoffs into slots of width slot
// seconds, counting only moves into (direction=In) or out of
// (direction=Out) the given cell — the series Figure 5 plots.
type direction int

const (
	// In counts handoffs whose destination is the cell.
	In direction = iota
	// Out counts handoffs leaving the cell.
	Out
	// Touch counts both directions — "total handoff activity".
	Touch
)

// HandoffSeries returns counts per slot covering [0, horizon).
func HandoffSeries(t *Trace, cell topology.CellID, dir direction, slot, horizon float64) []int {
	n := int(horizon/slot) + 1
	out := make([]int, n)
	for _, m := range t.Moves {
		if m.From == "" || m.Time >= horizon {
			continue // placements are not handoffs
		}
		match := false
		switch dir {
		case In:
			match = m.To == cell
		case Out:
			match = m.From == cell
		default:
			match = m.To == cell || m.From == cell
		}
		if match {
			out[int(m.Time/slot)]++
		}
	}
	return out
}
