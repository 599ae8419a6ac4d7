package sim

import (
	"context"
	"fmt"
	"strings"

	"armnet/internal/mobility"
	"armnet/internal/profile"
	"armnet/internal/randx"
	"armnet/internal/reserve"
	"armnet/internal/runner"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// Fig5Algorithm selects the advance-reservation algorithm compared in
// §7.1's meeting-room experiment.
type Fig5Algorithm int

const (
	// AlgBruteForce reserves each mobile's bandwidth in every neighbor
	// of its current cell.
	AlgBruteForce Fig5Algorithm = iota
	// AlgAggregation reserves in the single next cell predicted by the
	// current cell's aggregate handoff history.
	AlgAggregation
	// AlgMeetingRoom is the paper's §6.2.1 calendar-driven policy.
	AlgMeetingRoom
)

// String implements fmt.Stringer.
func (a Fig5Algorithm) String() string {
	switch a {
	case AlgBruteForce:
		return "brute-force"
	case AlgAggregation:
		return "aggregation"
	case AlgMeetingRoom:
		return "meeting-room"
	default:
		return fmt.Sprintf("Fig5Algorithm(%d)", int(a))
	}
}

// figure5Config drives one run of the classroom scenario.
type figure5Config struct {
	// seed drives the run's randomness; every value is valid and
	// distinct, including 0.
	seed int64
	// students is the class size (35 lecture / 55 laboratory).
	students int
	// walkBys is the corridor through-traffic volume.
	walkBys int
	// algorithm selects the reservation strategy.
	algorithm Fig5Algorithm
}

const (
	// figure5Capacity is the cell throughput (paper: 1.6 Mb/s).
	figure5Capacity = 1.6e6
	// figure5TrainRounds pre-trains the aggregation algorithm's cell
	// profiles with this many prior identical classes — it needs history
	// to aggregate, exactly as the paper's base stations would.
	figure5TrainRounds = 3
	// figure5Tth is the static/mobile threshold (§3.4.2): a portable that
	// has not moved for figure5Tth seconds is static and holds no advance
	// reservations.
	figure5Tth = 300
)

// Figure5Result reports one run.
type Figure5Result struct {
	Algorithm Fig5Algorithm
	Students  int
	// OfferedLoad is Σ b_i of the class over the cell capacity (the
	// paper reports 59% for 35 students and 94% for 55).
	OfferedLoad float64
	// Drops is the number of connections dropped at handoff.
	Drops int
	// HandoffAttempts and HandoffDenied give the raw counts.
	HandoffAttempts int
	// Series are the Figure 5 curves (per-minute handoff counts):
	// (a) into the room, (b) activity outside at the start,
	// (c) out of the room, (d) activity outside at the end.
	IntoRoom, OutsideStart, OutOfRoom, OutsideEnd []int
}

// fig5Cell is the cell-capacity bookkeeping of the §7.1 simulation.
type fig5Cell struct {
	cap float64
	// active maps portable → connection bandwidth currently served here.
	active map[string]float64
	// resv maps portable → bandwidth advance-reserved here for it.
	resv map[string]float64
	// pool is the aggregate (meeting-policy) reservation in bits/s.
	pool float64
}

// used sums the bandwidth served here. Both sums walk their map through
// a stats.Sum, whose correctly rounded total does not depend on map order.
func (c *fig5Cell) used() float64 {
	var t stats.Sum
	for _, b := range c.active {
		t.Add(b)
	}
	return t.Value()
}

// reservedOthers sums the advance reservations held here for portables
// other than the given one; only *mobile* portables' reservations count
// (§3.4.2: a static portable holds no advance reservations).
func (c *fig5Cell) reservedOthers(portable string, mobile func(string) bool) float64 {
	var t stats.Sum
	for p, b := range c.resv {
		if p != portable && mobile(p) {
			t.Add(b)
		}
	}
	return t.Value()
}

// admitHandoff decides whether the portable's connection of bandwidth b
// fits this cell. The portable's own reservation and — for expected
// meeting attendees — the policy pool do not count against it.
func (c *fig5Cell) admitHandoff(portable string, b float64, expected bool, mobile func(string) bool) bool {
	avail := c.cap - c.used() - c.reservedOthers(portable, mobile)
	if !expected {
		avail -= c.pool
	}
	return b <= avail+1e-9
}

// runFigure5 simulates the classroom scenario under one reservation
// algorithm and returns the drop count and the Figure 5 handoff curves.
func runFigure5(cfg figure5Config) (Figure5Result, error) {
	rng := randx.New(cfg.seed)
	env, err := topology.BuildMeetingWing(figure5Capacity)
	if err != nil {
		return Figure5Result{}, err
	}
	mcfg := mobility.MeetingClassConfig{
		Students: cfg.students,
		Start:    3600,
		End:      3600 + 50*60,
		WalkBys:  cfg.walkBys,
		// Corridor traffic peaks at class change (Figure 5 b/d): other
		// classes let out at the same time.
		WalkByPeak: true,
	}
	mcfg.Horizon = mcfg.End + 1800
	trace, err := mobility.MeetingClass(mcfg, rng)
	if err != nil {
		return Figure5Result{}, err
	}

	// Per-portable connection bandwidth: 16 kb/s (75%) or 64 kb/s (25%).
	bw := map[string]float64{}
	classLoad := 0.0
	for _, mv := range trace.Moves {
		if _, ok := bw[mv.Portable]; ok {
			continue
		}
		b := 16e3
		if rng.Bernoulli(0.25) {
			b = 64e3
		}
		bw[mv.Portable] = b
		if strings.HasPrefix(mv.Portable, "stu-") {
			classLoad += b
		}
	}

	cells := map[topology.CellID]*fig5Cell{}
	for _, c := range env.Universe.Cells() {
		cells[c.ID] = &fig5Cell{cap: figure5Capacity, active: map[string]float64{}, resv: map[string]float64{}}
	}

	// Aggregation training: cell profiles from prior identical classes.
	profiles := map[topology.CellID]*profile.CellProfile{}
	for _, c := range env.Universe.Cells() {
		profiles[c.ID] = profile.NewCellProfile(c.ID, 100000, 60)
	}
	if cfg.algorithm == AlgAggregation {
		for round := 0; round < figure5TrainRounds; round++ {
			tr, err := mobility.MeetingClass(mcfg, randx.New(cfg.seed+int64(round)+100))
			if err != nil {
				return Figure5Result{}, err
			}
			prev := map[string]topology.CellID{}
			for _, mv := range tr.Moves {
				if mv.From != "" {
					profiles[mv.From].RecordDeparture(profile.Handoff{
						Portable: mv.Portable, Prev: prev[mv.Portable],
						From: mv.From, To: mv.To, Time: mv.Time,
					})
				}
				prev[mv.Portable] = mv.From
			}
		}
	}

	// Meeting policy for the meeting-room algorithm.
	var policy *reserve.MeetingPolicy
	arrived := map[string]bool{}
	left := map[string]bool{}
	if cfg.algorithm == AlgMeetingRoom {
		policy, err = reserve.NewMeetingPolicy(
			reserve.Meeting{Start: mcfg.Start, End: mcfg.End, Attendees: cfg.students})
		if err != nil {
			return Figure5Result{}, err
		}
	}

	// refreshPortableResv re-places the per-portable reservations after
	// the portable moved to cell `at`.
	clearResv := func(p string) {
		for _, c := range cells {
			delete(c.resv, p)
		}
	}
	refreshPortableResv := func(p string, at topology.CellID, prev topology.CellID) {
		clearResv(p)
		b := bw[p]
		if b == 0 {
			return
		}
		switch cfg.algorithm {
		case AlgBruteForce:
			for _, nid := range env.Universe.Cell(at).Neighbors() {
				cells[nid].resv[p] = b
			}
		case AlgAggregation:
			if next, ok := profiles[at].Predict(prev); ok {
				if env.Universe.Cell(at).IsNeighbor(next) {
					cells[next].resv[p] = b
				}
			}
		case AlgMeetingRoom:
			// Only the calendar drives reservations.
		}
	}
	// applyMeetingPool refreshes the room pool and the neighbor pools.
	roomNeighbors := env.Universe.Cell("M").Neighbors()
	applyMeetingPool := func(now float64) {
		if policy == nil {
			return
		}
		perUser := classLoad / float64(cfg.students) // expected per-attendee bandwidth
		cells["M"].pool = float64(policy.RoomSlots(now, len(arrived))) * perUser
		// Departure reservation splits over the room's neighbors per its
		// cell profile ("according to its cell profile"); with no history
		// the split is uniform.
		total := float64(policy.NeighborSlots(now, len(arrived), len(left))) * perUser
		for _, nid := range roomNeighbors {
			cells[nid].pool = total / float64(len(roomNeighbors))
		}
	}

	res := Figure5Result{
		Algorithm:   cfg.algorithm,
		Students:    cfg.students,
		OfferedLoad: classLoad / figure5Capacity,
	}
	// Portables leave the system after their final move: walk-bys exit
	// the wing, students head back to their offices. Track each
	// portable's last move index so its connection and reservations are
	// torn down instead of pooling forever in the exit cell.
	lastMove := map[string]int{}
	for i, mv := range trace.Moves {
		lastMove[mv.Portable] = i
	}
	dropped := map[string]bool{}
	prevCell := map[string]topology.CellID{}
	// Static/mobile test: a portable whose last move is older than Tth
	// is static; its advance reservations are ignored (cleared).
	lastMoveTime := map[string]float64{}
	now := 0.0
	mobile := func(p string) bool { return now-lastMoveTime[p] < figure5Tth }
	for i, mv := range trace.Moves {
		now = mv.Time
		applyMeetingPool(now)
		p := mv.Portable
		if mv.From == "" {
			// Placement: open the connection in the entry cell. Entry
			// cells are lightly loaded; a placement that does not fit is
			// counted as a drop too (it never happens at paper loads).
			c := cells[mv.To]
			lastMoveTime[p] = now
			if bw[p] <= c.cap-c.used()-c.reservedOthers(p, mobile)-c.pool {
				c.active[p] = bw[p]
			} else {
				dropped[p] = true
				res.Drops++
			}
			refreshPortableResv(p, mv.To, "")
			prevCell[p] = ""
			if lastMove[p] == i {
				for _, c := range cells {
					delete(c.active, p)
				}
				clearResv(p)
			}
			continue
		}
		// Meeting counters.
		if policy != nil {
			if mv.To == "M" && now >= mcfg.Start-reserve.MeetingLeadIn && now < mcfg.End {
				arrived[p] = true
			}
			if mv.From == "M" && arrived[p] && now >= mcfg.End-reserve.MeetingLeadOut {
				left[p] = true
			}
			applyMeetingPool(now)
		}
		lastMoveTime[p] = now
		if !dropped[p] {
			res.HandoffAttempts++
			from, to := cells[mv.From], cells[mv.To]
			// Expected movers may consume the policy pool: attendees
			// entering the room around the start, and attendees leaving
			// into the corridor around the conclusion.
			expected := policy != nil && strings.HasPrefix(p, "stu-") &&
				((mv.To == "M" && now >= mcfg.Start-reserve.MeetingLeadIn) ||
					(mv.From == "M" && now >= mcfg.End-reserve.MeetingLeadOut))
			if to.admitHandoff(p, bw[p], expected, mobile) {
				delete(from.active, p)
				to.active[p] = bw[p]
			} else {
				delete(from.active, p)
				dropped[p] = true
				res.Drops++
			}
		}
		refreshPortableResv(p, mv.To, prevCell[p])
		prevCell[p] = mv.From
		if lastMove[p] == i {
			// Final move: the portable exits the system.
			for _, c := range cells {
				delete(c.active, p)
			}
			clearResv(p)
		}
	}

	// Figure 5 curves.
	slot := 60.0
	res.IntoRoom = mobility.HandoffSeries(trace, "M", mobility.In, slot, mcfg.Horizon)
	res.OutOfRoom = mobility.HandoffSeries(trace, "M", mobility.Out, slot, mcfg.Horizon)
	outside := mobility.HandoffSeries(trace, "corr1", mobility.Touch, slot, mcfg.Horizon)
	res.OutsideStart = windowSlice(outside, int(mcfg.Start/slot)-10, int(mcfg.Start/slot)+10)
	res.OutsideEnd = windowSlice(outside, int(mcfg.End/slot)-10, int(mcfg.End/slot)+10)
	return res, nil
}

func windowSlice(s []int, lo, hi int) []int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if lo >= hi {
		return nil
	}
	return append([]int(nil), s[lo:hi]...)
}

// RunFigure5Comparison runs the three algorithms on the two class sizes
// of §7.1 with walkBys corridor transits passing the room (0 is none),
// one trial per (class size, algorithm), and returns results in the
// paper's order.
func RunFigure5Comparison(ctx context.Context, seed int64, walkBys, workers int) ([]Figure5Result, runner.Stats, error) {
	classes := []int{35, 55}
	algs := []Fig5Algorithm{AlgBruteForce, AlgAggregation, AlgMeetingRoom}
	return runner.Map(ctx, workers, len(classes)*len(algs), func(_ context.Context, i int) (Figure5Result, error) {
		return runFigure5(figure5Config{
			seed:      seed,
			students:  classes[i/len(algs)],
			walkBys:   walkBys,
			algorithm: algs[i%len(algs)],
		})
	})
}
