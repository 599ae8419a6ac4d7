package testnet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"armnet/internal/faults"
	"armnet/internal/obs"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// SoakConfig parameterizes a soak run: a generated setup/handoff/close
// workload executed for Epochs scripted epochs on the loopback fabric,
// each epoch under a rotating wire fault plan, each epoch boundary
// audited with the same oracle the final audit uses. Sim-clock seconds
// are free, so a multi-minute scenario soaks in well under a second of
// wall time — short soaks are CI material.
type SoakConfig struct {
	// Epochs is the scripted epoch count (≤0 → DefaultSoakEpochs).
	Epochs int
	// epochLen is one epoch in scenario seconds (≤0 → defaultEpochLen).
	// The last soakHealWindow seconds of every epoch run fault-free so
	// retries drain, leases recover, and the rate protocol re-converges
	// before the epoch audit.
	epochLen float64
	// Seed drives both the workload generator and the per-epoch fault
	// injectors (epoch e salts with Seed+e).
	Seed int64
	// Plans rotate across epochs: epoch e runs Plans[e%len(Plans)] (nil
	// → defaultSoakPlans). Node faults are epoch-relative; a crash that
	// never heals on its own (for-less) is force-restarted at the heal
	// window so every epoch ends whole.
	Plans []*faults.Plan
	// Out, when non-nil, receives the JSONL epoch reports as they are
	// produced.
	Out io.Writer
	// Obs, when non-nil, is the live observability recorder to feed (a
	// telemetry server can scrape it mid-soak). RunSoak always arms one —
	// epoch reports carry per-epoch wire deltas either way — so leaving
	// this nil only means nobody scrapes it live.
	Obs *WireRecorder
}

// Soak defaults.
const (
	DefaultSoakEpochs = 6
	defaultEpochLen   = 10.0
	// soakLeasePeriod is the wire hold-lease renewal interval, with the
	// default miss budget.
	soakLeasePeriod = 0.5
	// soakReadvertise is the maxmin repair period.
	soakReadvertise = 0.75
	// soakHealWindow is the fault-free tail of every epoch: longer than
	// the worst-case signaling session deadline plus a full lease
	// detection-and-recovery cycle, so the epoch audit sees a settled
	// system.
	soakHealWindow = 4.0
)

// soakSchema versions the epoch-report line format. Downstream scrapers
// key on it; bump it whenever a field is added, removed, or changes
// meaning. Struct marshaling fixes the field order, so lines with the
// same schema are positionally stable.
const soakSchema = 1

// epochReport is one audited epoch boundary. Counters are cumulative
// since run start, so reports are monotone and a diff of two
// consecutive lines gives the per-epoch deltas; the Wire block is the
// exception — it is already the per-epoch delta of the live wire
// snapshot, quantifying what that epoch's fault plan did to the wire.
type epochReport struct {
	Schema         int        `json:"schema"`
	Epoch          int        `json:"epoch"`
	Time           float64    `json:"time"`
	Plan           int        `json:"plan"`
	Commits        int        `json:"commits"`
	Aborted        int        `json:"aborted"`
	Live           int        `json:"live"`
	Drops          int        `json:"drops"`
	Dups           int        `json:"dups"`
	Delays         int        `json:"delays"`
	Reorders       int        `json:"reorders"`
	PartitionDrops int        `json:"partition_drops"`
	Crashes        int        `json:"crashes"`
	Restarts       int        `json:"restarts"`
	Reclaims       int        `json:"reclaims"`
	PendingHolds   float64    `json:"pending_holds"`
	Gap            float64    `json:"gap"`
	Wire           *wireDelta `json:"wire,omitempty"`
	Violations     []string   `json:"violations"`
}

// wireDelta is one epoch's worth of live wire activity: the difference
// between consecutive epoch-boundary cluster snapshots. Fixed fields
// (not a map) keep the JSON ordering stable under soakSchema.
type wireDelta struct {
	FramesTx    int `json:"frames_tx"`
	FramesRx    int `json:"frames_rx"`
	BytesTx     int `json:"bytes_tx"`
	Acks        int `json:"acks"`
	Unacked     int `json:"unacked"`
	Retransmits int `json:"retransmits"`
	Giveups     int `json:"giveups"`
	LeaseRenews int `json:"lease_renews"`
	LeaseMisses int `json:"lease_misses"`
	Resyncs     int `json:"resyncs"`
	Malformed   int `json:"malformed"`
	// Verdicts split the fault layer's firings by family.
	VerdictDrop      int `json:"verdict_drop"`
	VerdictDup       int `json:"verdict_dup"`
	VerdictDelay     int `json:"verdict_delay"`
	VerdictReorder   int `json:"verdict_reorder"`
	VerdictPartition int `json:"verdict_partition"`
	VerdictCrash     int `json:"verdict_crash"`
	VerdictRestart   int `json:"verdict_restart"`
}

// soakResult is the full soak outcome.
type soakResult struct {
	// Reports holds one audited entry per epoch, in order.
	Reports []epochReport
	// ReportJSONL is the serialized report stream — the byte-identical
	// determinism target.
	ReportJSONL []byte
	// Run is the underlying scenario result (final audit included).
	Run *Result
	// Violations aggregates every epoch's findings plus the final
	// audit's; empty on a clean soak.
	Violations []string
}

// defaultSoakPlans is the rotation the `make soak` gate runs: epoch 0
// is loss and reordering, epoch 1 adds signaling loss, a maxmin delay
// and an east partition, epoch 2 duplicates frames and crash-restarts
// west — together covering every fault family in the grammar.
func defaultSoakPlans() []*faults.Plan {
	specs := []string{
		"drop any 0.15\nreorder any 0.2 0.004\n",
		"drop signal 0.25\ndelay maxmin 0.3 0.002\nat 1 partition east for 2\n",
		"dup any 0.1\nat 0.8 crash west for 2.2\n",
	}
	plans := make([]*faults.Plan, len(specs))
	for i, spec := range specs {
		p, err := faults.ParseWirePlan(strings.NewReader(spec))
		if err != nil {
			panic("testnet: default soak plan " + err.Error())
		}
		plans[i] = p
	}
	return plans
}

// RunSoak executes the soak scenario. Identical configs produce
// byte-identical ReportJSONL — the soak is one deterministic loopback
// run under the simulator clock.
func RunSoak(cfg SoakConfig) (*soakResult, error) { return runSoak(cfg) }

// runSoak is RunSoak with extra runner hooks appended after the soak's
// own.
func runSoak(cfg SoakConfig, extra ...soakHook) (*soakResult, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = DefaultSoakEpochs
	}
	if cfg.epochLen <= 0 {
		cfg.epochLen = defaultEpochLen
	}
	if cfg.epochLen <= soakHealWindow {
		return nil, fmt.Errorf("testnet: epoch %.3gs not longer than the %.3gs heal window", cfg.epochLen, soakHealWindow)
	}
	if len(cfg.Plans) == 0 {
		cfg.Plans = defaultSoakPlans()
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}
	cluster := NewCluster(env)
	for _, p := range cfg.Plans {
		if err := cluster.checkPlan(p); err != nil {
			return nil, err
		}
	}

	// The live wire recorder is always armed: epoch reports quantify each
	// plan's wire impact whether or not anyone scrapes it.
	if cfg.Obs == nil {
		cfg.Obs = NewWireRecorder()
	}

	active := cfg.epochLen - soakHealWindow
	res := &soakResult{}
	var hooks []soakHook
	var prevSnap *obs.Snapshot
	for e := 0; e < cfg.Epochs; e++ {
		e := e
		base := float64(e) * cfg.epochLen
		pidx := e % len(cfg.Plans)
		plan := cfg.Plans[pidx]
		seed := cfg.Seed + int64(e)

		// Rules run only inside the active window; the heal window is
		// injection-free.
		hooks = append(hooks,
			soakHook{at: base, fn: func(r *runner) { r.faulty.setPlan(plan, seed) }},
			soakHook{at: float64(base) + active, fn: func(r *runner) { r.faulty.setPlan(nil, 0) }},
		)
		for _, f := range soakEvents(plan, base, active) {
			hooks = append(hooks, soakHook{at: f.At, fn: func(r *runner) { r.faulty.apply(f) }})
		}
		hooks = append(hooks, soakHook{
			at: float64(base) + cfg.epochLen,
			fn: func(r *runner) {
				rep, cur := epochAudit(r, e, pidx, prevSnap)
				prevSnap = cur
				res.Reports = append(res.Reports, rep)
			},
		})
	}

	run, err := Run(Config{
		Mode:        ModeLoopback,
		Script:      soakScript(randx.New(cfg.Seed), cfg.Epochs, cfg.epochLen, active),
		Horizon:     float64(float64(cfg.Epochs)*cfg.epochLen) + 1,
		Faults:      &faults.Plan{}, // hooks swap the live plan per epoch
		faultSeed:   cfg.Seed,
		lease:       leaseConfig{Period: soakLeasePeriod},
		readvertise: soakReadvertise,
		Lenient:     true,
		Obs:         cfg.Obs,
		hooks:       append(hooks, extra...),
	})
	if err != nil {
		return nil, err
	}
	res.Run = run

	for _, rep := range res.Reports {
		res.Violations = append(res.Violations, rep.Violations...)
	}
	res.Violations = append(res.Violations, run.Violations...)
	for _, rep := range res.Reports {
		line, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		res.ReportJSONL = append(res.ReportJSONL, line...)
		res.ReportJSONL = append(res.ReportJSONL, '\n')
	}
	if cfg.Out != nil {
		if _, err := cfg.Out.Write(res.ReportJSONL); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// soakEvents places a plan's timed node faults in the epoch starting at
// base: times are epoch-relative and clamped into the active window,
// and a fault with no duration of its own lasts until the window closes,
// so every agent is back before the audit.
func soakEvents(plan *faults.Plan, base, active float64) []faults.Timed {
	var out []faults.Timed
	for _, f := range plan.Timed {
		if f.For == 0 {
			f.For = math.Inf(1)
		}
		end, ok := f.Restoration()
		f.At = base + clampF(f.At, 0, active-0.5)
		out = append(out, f)
		if ok {
			end.At = base + clampF(end.At, 0, active)
			out = append(out, end)
		}
	}
	return out
}

// epochAudit runs the full fault oracle mid-run: zero pending holds,
// ledger conservation, live-set consistency, and WaterFill convergence
// — the same checks the final audit applies, here applied after every
// healed epoch. prev is the previous boundary's cluster snapshot (nil
// at epoch 0); the current one is returned for the next boundary so the
// Wire block always carries a true per-epoch delta.
func epochAudit(r *runner, epoch, plan int, prev *obs.Snapshot) (epochReport, *obs.Snapshot) {
	viol := r.auditor().CheckFinal()
	if viol == nil {
		viol = []string{}
	}
	rep := epochReport{
		Schema:       soakSchema,
		Epoch:        epoch,
		Time:         r.clk.Now(),
		Plan:         plan,
		Commits:      r.commits,
		Aborted:      r.aborted,
		Live:         len(r.liveConns()),
		PendingHolds: r.plane.PendingTotal(),
		Gap:          r.proto.OracleGap(),
		Violations:   viol,
	}
	if r.faulty != nil {
		rep.PartitionDrops = r.faulty.PartitionDrops
		rep.Crashes = r.faulty.Crashes
		rep.Restarts = r.faulty.Restarts
		rep.Drops, rep.Dups, rep.Delays, rep.Reorders = r.faulty.stats()
	}
	if r.lease != nil {
		rep.Reclaims = r.lease.Reclaims
	}
	var cur *obs.Snapshot
	if r.cfg.Obs != nil {
		snap, err := ClusterSnapshot(r.cfg.Obs, r.nodeObs)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("live-obs: %v", err))
		} else {
			cur = snap
			rep.Wire = diffWire(cur, prev)
		}
	}
	return rep, cur
}

// diffWire subtracts two epoch-boundary cluster snapshots into the
// fixed-field per-epoch block.
func diffWire(cur, prev *obs.Snapshot) *wireDelta {
	d := func(name string) int {
		v := cur.CounterTotal(name)
		if prev != nil {
			v -= prev.CounterTotal(name)
		}
		return int(v)
	}
	verdict := func(family string) int {
		v := counterLabeled(cur, "armnet_wire_fault_verdicts_total", "family", family)
		if prev != nil {
			v -= counterLabeled(prev, "armnet_wire_fault_verdicts_total", "family", family)
		}
		return int(v)
	}
	return &wireDelta{
		FramesTx:         d("armnet_wire_frames_tx_total"),
		FramesRx:         d("armnet_wire_frames_rx_total"),
		BytesTx:          d("armnet_wire_bytes_tx_total"),
		Acks:             d("armnet_wire_acks_total"),
		Unacked:          d("armnet_wire_unacked_total"),
		Retransmits:      d("armnet_wire_retransmits_total"),
		Giveups:          d("armnet_wire_giveups_total"),
		LeaseRenews:      d("armnet_wire_lease_renews_total"),
		LeaseMisses:      d("armnet_wire_lease_misses_total"),
		Resyncs:          d("armnet_wire_resyncs_total"),
		Malformed:        d("armnet_wire_malformed_total"),
		VerdictDrop:      verdict("drop"),
		VerdictDup:       verdict("dup"),
		VerdictDelay:     verdict("delay"),
		VerdictReorder:   verdict("reorder"),
		VerdictPartition: verdict("partition"),
		VerdictCrash:     verdict("crash"),
		VerdictRestart:   verdict("restart"),
	}
}

// counterLabeled sums the counter series matching (name, one label).
func counterLabeled(s *obs.Snapshot, name, key, val string) float64 {
	total := 0.0
	for _, c := range s.Counters {
		if c.Name == name && c.Labels[key] == val {
			total += c.Value
		}
	}
	return total
}

// soakScript generates the epoch workload: 3–5 setups early in each
// epoch's active window, one handoff and up to two closes later in it.
// Everything derives from the seeded generator, so the script — like
// the faults — replays exactly.
func soakScript(rng *randx.Rand, epochs int, epochLen, active float64) []Step {
	cells := []topology.CellID{
		"off-1", "off-2", "off-3", "cor-w1", "cor-w2", "cor-e1", "meet", "cafe", "lounge",
	}
	var steps []Step
	var pool []string
	for e := 0; e < epochs; e++ {
		base := float64(e) * epochLen
		n := 3 + rng.Intn(3)
		for i := 0; i < n; i++ {
			conn := fmt.Sprintf("e%ds%d:0", e, i)
			min := 100e3 + float64(float64(rng.Intn(4))*50e3)
			steps = append(steps, Step{
				At:   float64(base) + 0.1 + float64(rng.Float64()*active*0.5),
				Op:   OpSetup,
				Conn: conn,
				Cell: cells[rng.Intn(len(cells))],
				Host: rng.Intn(2),
				Min:  min,
				Max:  min + float64(float64(1+rng.Intn(5))*200e3),
			})
			pool = append(pool, conn)
		}
		if len(pool) > 0 {
			steps = append(steps, Step{
				At:   float64(base) + float64(active*0.5) + float64(rng.Float64()*active*0.3),
				Op:   OpHandoff,
				Conn: pool[rng.Intn(len(pool))],
				Cell: cells[rng.Intn(len(cells))],
				Host: rng.Intn(2),
				Min:  150e3,
				Max:  600e3,
			})
		}
		for k := 0; k < 2 && len(pool) > 0; k++ {
			i := rng.Intn(len(pool))
			conn := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			steps = append(steps, Step{
				At:   float64(base) + float64(active*0.6) + float64(rng.Float64()*active*0.35),
				Op:   OpClose,
				Conn: conn,
			})
		}
	}
	return steps
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
