package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/mobility"
	"armnet/internal/obs"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// simOp is one scripted call the driver makes into core.
type simOp struct {
	At       float64
	Kind     simOpKind
	Portable string
	Cell     topology.CellID // place / handoff destination
	Slot     int             // office-churn: which of the portable's cycles
	Req      qos.Request     // open
}

type simOpKind int

const (
	opPlace simOpKind = iota
	opOpen
	opHandoff
	opClose
)

// simSpec is one sim-plane workload: a core configuration and a
// generator that turns a seed into the scripted calls of one replication.
type simSpec struct {
	name      string
	portables int
	duration  float64 // simulated seconds per replication
	seeds     []int64 // default seed set of one pass, before the -seed offset
	config    func(seed int64) core.Config
	script    func(env *topology.Environment, seed int64) ([]simOp, error)
}

// Campus-walk: the handoff-dominated sim workload (see README).
const (
	campusPortables = 48
	campusDuration  = 900.0
	campusDwell     = 60.0
	campusBMin      = 128e3
	campusBMax      = 512e3
)

var campusWalk = simSpec{
	name:      "campus-walk",
	portables: campusPortables,
	duration:  campusDuration,
	seeds:     []int64{1, 2, 3, 4, 5, 6},
	config: func(seed int64) core.Config {
		return core.Config{Seed: seed, Mode: core.ModePredictive}
	},
	script: campusScript,
}

// campusScript turns a random walk into place+open / handoff calls: each
// portable opens one connection where it first appears and then only
// moves.
func campusScript(env *topology.Environment, seed int64) ([]simOp, error) {
	names := make([]string, campusPortables)
	for i := range names {
		names[i] = fmt.Sprintf("p%02d", i)
	}
	walk, err := mobility.RandomWalk(env.Universe, names, campusDwell, campusDuration, randx.New(seed+1))
	if err != nil {
		return nil, err
	}
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: campusBMin, Max: campusBMax},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: campusBMin / 4, Rho: campusBMin},
	}
	ops := make([]simOp, 0, len(walk.Moves)+campusPortables)
	for _, mv := range walk.Moves {
		if mv.From == "" {
			ops = append(ops,
				simOp{At: mv.Time, Kind: opPlace, Portable: mv.Portable, Cell: mv.To},
				simOp{At: mv.Time, Kind: opOpen, Portable: mv.Portable, Req: req})
			continue
		}
		ops = append(ops, simOp{At: mv.Time, Kind: opHandoff, Portable: mv.Portable, Cell: mv.To})
	}
	return ops, nil
}

// Office-churn: static portables opening and closing connections, so the
// event-driven maxmin protocol carries the pass (see README).
const (
	officePortables = 32
	officeDuration  = 150.0
	officeTth       = 10.0
	officeHoldMean  = 10.0
	officeIdleMean  = 2.5
	officeBMinLo    = 16e3
	officeBMinHi    = 40e3
)

var officeChurn = simSpec{
	name:      "office-churn",
	portables: officePortables,
	duration:  officeDuration,
	seeds:     []int64{1, 2},
	config: func(seed int64) core.Config {
		return core.Config{Seed: seed, Mode: core.ModePredictive, Tth: officeTth}
	},
	script: officeScript,
}

// officeScript places every portable once at time zero and gives each an
// independent idle→open→hold→close cycle until the horizon. Portables are
// dealt round-robin over a seeded shuffle of the cells, so every seed
// loads the cells equally and only who sits where varies: with uniformly
// random placement the occupancy imbalance alone doubled the seed-to-seed
// spread of a pass's cost.
func officeScript(env *topology.Environment, seed int64) ([]simOp, error) {
	cells := env.Universe.Cells()
	if len(cells) == 0 {
		return nil, errors.New("office-churn: empty universe")
	}
	rng := randx.New(seed + 1)
	order := rng.Perm(len(cells))
	var ops []simOp
	for i := 0; i < officePortables; i++ {
		p := fmt.Sprintf("p%02d", i)
		ops = append(ops, simOp{Kind: opPlace, Portable: p, Cell: cells[order[i%len(cells)]].ID})
		t := 0.0
		for slot := 0; ; slot++ {
			t += rng.Exp(1 / officeIdleMean)
			if t >= officeDuration {
				break
			}
			bmin := officeBMinLo + rng.Float64()*(officeBMinHi-officeBMinLo)
			ops = append(ops, simOp{At: t, Kind: opOpen, Portable: p, Slot: slot, Req: qos.Request{
				Bandwidth: qos.Bounds{Min: bmin, Max: 4 * bmin},
				Delay:     5, Jitter: 5, Loss: 0.05,
				Traffic: qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
			}})
			t += rng.Exp(1 / officeHoldMean)
			if t >= officeDuration {
				break
			}
			ops = append(ops, simOp{At: t, Kind: opClose, Portable: p, Slot: slot})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops, nil
}

// simCounts are the exact outcomes of one replication. Everything here
// is free to read after a run (manager counters, simulator and bus
// sequence numbers), so it is collected on every pass, and check (a)
// requires it identical for one seed across all passes.
type simCounts struct {
	Ops                        int
	Requested, Blocked         int64
	HandoffAttempts, Dropped   int64
	AdvanceReservations, Pool  int64
	RateUpdates                int64
	Fired, Published           uint64
	MaxPending                 int
	MaxminMessages, MaxminSess int
	LiveAtEnd                  int
	SumConnsPerLink            int // Σ over links of NumConns at the horizon
	LoadedLinks                int // links holding at least one connection then
}

// simTraceCounts are the counts that need a bus subscriber, taken in the
// traced pass only.
type simTraceCounts struct {
	Decisions, Refused        int64
	AdaptationRounds          int64
	Converged                 int64
	PredictedHandoffs         int64
	HandoffLatencies          int64
	SignalCommits, SignalAbts int64
	Retransmits               int64
}

// simSeedResult is one replication's outcome and cost.
type simSeedResult struct {
	counts         simCounts
	setupNS, runNS int64
	mallocs, bytes uint64
	openNS         []float64
	traced         simTraceCounts
	// problem is the maxmin instance at the horizon, for the probes.
	problem maxmin.Problem
}

// simRunOpts selects the optional machinery of one replication.
type simRunOpts struct {
	tr *tracer
	// counts attaches the bus subscriber behind simTraceCounts.
	counts bool
	// armObs arms core.Config.Obs; recorder attaches a JSONL trace
	// recorder writing to io.Discard. Both exist only for the obs
	// overhead pairs.
	armObs, recorder bool
	// duration is the horizon in simulated seconds (a smoke run's is a
	// tenth of the workload's).
	duration float64
}

// tailStep and tailMax bound the quiescent tail after the horizon: the
// run is extended in tailStep slices until the protocol matches the
// water-filling oracle, and fails check (c) if it has not within
// tailMax.
const (
	tailStep = 5.0
	tailMax  = 60.0
	gapTol   = 1e-6
)

// runSimSeed runs one replication of a sim workload end to end: set up,
// run to the horizon (the timed part), then the untimed quiescent tail
// and correctness checks (b) and (c).
func runSimSeed(w *simSpec, seed int64, o simRunOpts) (*simSeedResult, error) {
	res := &simSeedResult{}
	duration := o.duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()

	sp := o.tr.begin("setup.topology", "")
	env, err := topology.BuildCampus()
	o.tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = o.tr.begin("setup.mobility", "")
	ops, err := w.script(env, seed)
	o.tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = o.tr.begin("setup.manager", "")
	d, err := newSimDriver(w, env, seed, ops, o, res)
	o.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sim, mgr := d.sim, d.mgr
	res.setupNS = int64(time.Since(t0))

	t1 := time.Now()
	sp = o.tr.begin("des.run_until", "")
	err = sim.RunUntil(duration)
	o.tr.end(sp)
	res.runNS = int64(time.Since(t1))
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}

	c := &res.counts
	ctr := mgr.Met.Counter
	c.Requested, c.Blocked = ctr.Get(core.CtrNewRequested), ctr.Get(core.CtrNewBlocked)
	c.HandoffAttempts, c.Dropped = ctr.Get(core.CtrHandoffTried), ctr.Get(core.CtrHandoffDropped)
	c.AdvanceReservations, c.Pool = ctr.Get(core.CtrAdvanceResv), ctr.Get(core.CtrPoolClaims)
	c.RateUpdates = ctr.Get(core.CtrAdaptUpdates)
	c.Fired, c.Published = sim.Fired(), mgr.Bus.Seq()
	c.MaxPending = d.maxPending
	st := mgr.Adpt.Alloc.Stats()
	c.MaxminMessages, c.MaxminSess = st.Messages, st.Sessions
	c.LiveAtEnd = len(mgr.ConnIDs())
	for _, ls := range mgr.Ledger().Links() {
		c.SumConnsPerLink += ls.NumConns()
		if ls.NumConns() > 0 {
			c.LoadedLinks++
		}
	}
	pr := mgr.Adpt.Maxmin()
	if pr == nil {
		return nil, errors.New("sim plane: default allocator is not the maxmin protocol")
	}
	res.problem = pr.Problem()

	// Quiescent tail, then Theorem 1 (c) and the ledger audit (b).
	gap := func() float64 {
		g, err := oracleGap(pr.Problem(), pr.Rates())
		if err != nil {
			return math.Inf(1)
		}
		return g
	}
	for t := tailStep; ; t += tailStep {
		if err := sim.RunUntil(duration + t); err != nil {
			return nil, err
		}
		if gap() <= gapTol {
			break
		}
		if t >= tailMax {
			return nil, fmt.Errorf("check (c): %s seed %d: protocol is %g from the water-filling oracle %gs after the horizon",
				w.name, seed, gap(), t)
		}
	}
	aud := faults.Auditor{
		Ledger:         mgr.Ledger(),
		LiveConns:      mgr.ConnIDs,
		ConvergenceGap: gap,
		GapTol:         gapTol,
	}
	if v := aud.CheckFinal(); len(v) > 0 {
		return nil, fmt.Errorf("check (b): %s seed %d: %v", w.name, seed, v)
	}
	return res, nil
}

// subscribe counts the kinds the free counters do not cover.
func (tc *simTraceCounts) subscribe(bus *eventbus.Bus) {
	bus.Subscribe(func(r eventbus.Record) {
		switch ev := r.Event.(type) {
		case eventbus.AdmissionDecision:
			tc.Decisions++
			if !ev.Admitted {
				tc.Refused++
			}
		case eventbus.AdaptationRound:
			tc.AdaptationRounds++
		case eventbus.MaxminConverged:
			tc.Converged++
		case eventbus.HandoffLatency:
			tc.HandoffLatencies++
			if ev.Predicted {
				tc.PredictedHandoffs++
			}
		case eventbus.SignalCommit:
			tc.SignalCommits++
		case eventbus.SignalAbort:
			tc.SignalAbts++
		case eventbus.ControlRetransmit:
			tc.Retransmits++
		}
	},
		eventbus.KindAdmissionDecision, eventbus.KindAdaptationRound,
		eventbus.KindMaxminConverged, eventbus.KindHandoffLatency,
		eventbus.KindSignalCommit, eventbus.KindSignalAbort,
		eventbus.KindControlRetransmit)
}

// simDriver executes scripted ops against the manager from inside
// simulator events, recording one span per call when tracing.
type simDriver struct {
	mgr        *core.Manager
	sim        *des.Simulator
	tr         *tracer
	res        *simSeedResult
	conns      map[string]string // "portable/slot" → live connection ID
	maxPending int
	err        error
}

// newSimDriver builds the simulator and manager of one replication,
// attaches whatever the options ask for, and posts every scripted op up
// to the horizon.
func newSimDriver(w *simSpec, env *topology.Environment, seed int64, ops []simOp, o simRunOpts, res *simSeedResult) (*simDriver, error) {
	sim := des.New()
	cfg := w.config(seed)
	if o.armObs {
		cfg.Obs = &obs.Options{}
	}
	mgr, err := core.NewManager(sim, env, cfg)
	if err != nil {
		return nil, err
	}
	if o.recorder {
		eventbus.AttachRecorder(mgr.Bus, io.Discard)
	}
	if o.counts {
		res.traced.subscribe(mgr.Bus)
	}
	d := &simDriver{mgr: mgr, sim: sim, tr: o.tr, res: res, conns: make(map[string]string)}
	for i := range ops {
		op := &ops[i]
		if op.At > o.duration {
			continue
		}
		res.counts.Ops++
		sim.Post(op.At, func() { d.exec(op) })
	}
	return d, nil
}

func connKey(op *simOp) string { return fmt.Sprintf("%s/%d", op.Portable, op.Slot) }

func (d *simDriver) exec(op *simOp) {
	if p := d.sim.Pending(); p > d.maxPending {
		d.maxPending = p
	}
	switch op.Kind {
	case opPlace:
		sp := d.tr.begin("core.place", op.Portable)
		err := d.mgr.PlacePortable(op.Portable, op.Cell)
		d.tr.end(sp)
		d.fail(op, err)
	case opOpen:
		sp := d.tr.begin("core.open", op.Portable)
		t0 := time.Now()
		id, err := d.mgr.OpenConnection(op.Portable, op.Req)
		d.res.openNS = append(d.res.openNS, float64(time.Since(t0)))
		d.tr.end(sp)
		// A refusal is an outcome the counters record, not a failure.
		if err == nil {
			d.conns[connKey(op)] = id
		} else if !errors.Is(err, core.ErrRejected) {
			d.fail(op, err)
		}
	case opHandoff:
		sp := d.tr.begin("core.handoff", op.Portable)
		err := d.mgr.HandoffPortable(op.Portable, op.Cell)
		d.tr.end(sp)
		d.fail(op, err)
	case opClose:
		id, ok := d.conns[connKey(op)]
		if !ok {
			return // its open was refused
		}
		delete(d.conns, connKey(op))
		sp := d.tr.begin("core.close", id)
		err := d.mgr.CloseConnection(id)
		d.tr.end(sp)
		d.fail(op, err)
	}
}

func (d *simDriver) fail(op *simOp, err error) {
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("sim driver: op %d for %s at t=%g: %w", op.Kind, op.Portable, op.At, err)
	}
}
