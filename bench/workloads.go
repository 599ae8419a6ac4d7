package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"armnet/internal/maxmin"
	"armnet/internal/netfaults"
	"armnet/internal/sortx"
	"armnet/internal/testnet"
	"armnet/internal/topology"
)

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	log     io.Writer
}

// report is what a workload hands back: the contract's failure counts
// and either the end-to-end or the per-layer metric set.
type report struct {
	attempted, failed int64
	values            map[string]float64
	spans             []span
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"campus-walk",
		"sim plane, handoff-dominated and loaded enough (P_d≈0.02, P_b≈0.08) that refusal and rollback run: admission ledger reads, pool adjustment and routing carry the pass",
		func(cfg runConfig) (*report, error) { return runSim(&campusWalk, cfg) }},
	{"office-churn",
		"sim plane, static portables opening and closing connections: the ledger's write side and the event-driven maxmin protocol carry the pass, admission reads do not",
		func(cfg runConfig) (*report, error) { return runSim(&officeChurn, cfg) }},
	{"live-loopback-churn",
		"live plane on the sim clock: the only place wire codec, Node.HandleFrame, loopback transport and the always-on JSONL recorder are hot; deterministic, so frame counts are exact",
		runLoopback},
	{"live-udp-paced",
		"live plane on the wall clock over real UDP sockets on host loopback, open loop at a fixed rate: the set-up round trip a user of the live plane sees",
		runUDP},
}

// passStats is what one timed pass contributes to the end-to-end
// figures.
type passStats struct {
	setupS, runS   float64
	ops            int
	portableSecs   float64
	mallocs, bytes uint64
}

// endToEndFrom reduces timed passes to the set-up, throughput and
// allocation metrics. Passes differ in their seeds, so that one run
// averages over many generated inputs: the times are medians over passes,
// and the allocation figures — exact for a seed, with no host noise to
// reject — are totals over all passes divided by total steps.
func endToEndFrom(log io.Writer, passes []passStats) map[string]float64 {
	var setup, psps, ops []float64
	var mallocs, bytes, steps float64
	for _, p := range passes {
		setup = append(setup, p.setupS)
		psps = append(psps, p.portableSecs/p.runS)
		ops = append(ops, float64(p.ops)/p.runS)
		mallocs += float64(p.mallocs)
		bytes += float64(p.bytes)
		steps += float64(p.ops)
	}
	logQuartiles(log, "portable_secs_per_s", psps)
	logQuartiles(log, "ops_per_s", ops)
	return map[string]float64{
		"setup_s":             median(setup),
		"portable_secs_per_s": median(psps),
		"ops_per_s":           median(ops),
		"allocs_per_op":       mallocs / steps,
		"alloc_kb_per_op":     bytes / 1e3 / steps,
	}
}

func logQuartiles(w io.Writer, label string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(w, "  %-26s median %.6g  quartiles %.6g .. %.6g  (N=%d passes)\n", label, q2, q1, q3, len(xs))
}

func logLatency(w io.Writer, label, unit string, s latencySummary) {
	fmt.Fprintf(w, "  %-26s p50 %.4g %s", label, s.P50, unit)
	if s.TailP > 0 {
		fmt.Fprintf(w, "  p%g %.4g %s", s.TailP, s.TailValue, unit)
	}
	fmt.Fprintf(w, "  max %.4g %s  (N=%d samples)\n", s.Max, unit, s.N)
}

// zeroPerLayer starts a per-layer set with every metric at 0, the value
// a layer reads on a workload that does not exercise it.
func zeroPerLayer() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overheadPct is the median of variant/plain pass-time ratios, as a
// percentage over 1; 0 when no pair was run.
func overheadPct(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	return (median(ratios) - 1) * 100
}

// passBudget is how long the pass loop may run and how many plain passes
// it must make: a traced run leaves room for the traced pass and the
// probes, a smoke run makes one pass.
func passBudget(cfg runConfig) (seconds float64, minPasses int) {
	switch {
	case cfg.smoke:
		return 0, 1
	case cfg.trace:
		return 0.6 * cfg.seconds, 2
	}
	return cfg.seconds, 3
}

// simPass is one pass over one seed set.
type simPass struct {
	passStats
	counts simCounts // summed over the seeds
	traced simTraceCounts
	openNS []float64
	// problem is the largest maxmin instance a seed left at its horizon.
	problem maxmin.Problem
}

// runSim runs a sim-plane workload. Pass k replicates seed set k — the
// default set shifted by --seed and by k sets — so a run covers as many
// different seeds as it has passes. The warm-up pass and the first timed
// pass share set 0, which is where check (a) bites; when tracing, each
// plain pass is followed by a variant pass on the same set (Obs armed or
// a recorder attached), then come one traced pass on set 0 and the
// probes.
func runSim(w *simSpec, cfg runConfig) (*report, error) {
	duration := w.duration
	if cfg.smoke {
		duration /= 10
	}
	seedSet := func(k int) []int64 {
		out := make([]int64, len(w.seeds))
		for i, s := range w.seeds {
			out[i] = s + cfg.seed + int64(k*len(w.seeds))
		}
		return out
	}
	fmt.Fprintf(cfg.log, "%s: %d portables, %g sim-s per seed, pass k runs seeds %v + %dk\n",
		w.name, w.portables, duration, seedSet(0), len(w.seeds))

	ref := map[int64]simCounts{}
	pass := func(k int, o simRunOpts) (*simPass, error) {
		o.duration = duration
		runtime.GC()
		p := &simPass{}
		for _, s := range seedSet(k) {
			r, err := runSimSeed(w, s, o)
			if err != nil {
				return nil, err
			}
			if want, ok := ref[s]; !ok {
				ref[s] = r.counts
			} else if want != r.counts {
				return nil, fmt.Errorf("check (a): %s seed %d: counts differ between passes:\n  first %+v\n  now   %+v", w.name, s, want, r.counts)
			}
			p.setupS += float64(r.setupNS) / 1e9
			p.runS += float64(r.runNS) / 1e9
			p.ops += r.counts.Ops
			p.portableSecs += float64(w.portables) * duration
			p.mallocs += r.mallocs
			p.bytes += r.bytes
			p.openNS = append(p.openNS, r.openNS...)
			p.counts = addCounts(p.counts, r.counts)
			p.traced = addTraceCounts(p.traced, r.traced)
			if len(r.problem.Conns) >= len(p.problem.Conns) {
				p.problem = r.problem
			}
		}
		return p, nil
	}

	if _, err := pass(0, simRunOpts{}); err != nil { // warm-up, untimed
		return nil, err
	}
	budget, minPasses := passBudget(cfg)
	var plain []*simPass
	var armed, recorded []float64 // variant / plain pass-time ratios
	start := time.Now()
	for k := 0; k < minPasses || time.Since(start).Seconds() < budget; k++ {
		p, err := pass(k, simRunOpts{})
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		if !cfg.trace {
			continue
		}
		o := simRunOpts{armObs: k%2 == 0, recorder: k%2 == 1}
		v, err := pass(k, o)
		if err != nil {
			return nil, err
		}
		if o.armObs {
			armed = append(armed, v.runS/p.runS)
		} else {
			recorded = append(recorded, v.runS/p.runS)
		}
	}

	var total simCounts
	for _, p := range plain {
		total = addCounts(total, p.counts)
	}
	attempted := total.Requested + total.HandoffAttempts
	refused := total.Blocked + total.Dropped
	rep := &report{attempted: attempted}
	fmt.Fprintf(cfg.log, "  %d passes, %d seeds: %d driver calls, %d requests (%d blocked), %d handoff attempts (%d dropped), %d des events\n",
		len(plain), len(plain)*len(w.seeds), total.Ops, total.Requested, total.Blocked, total.HandoffAttempts, total.Dropped, total.Fired)

	if !cfg.trace {
		stats := make([]passStats, len(plain))
		var open []float64
		for i, p := range plain {
			stats[i] = p.passStats
			open = append(open, p.openNS...)
		}
		rep.values = endToEndFrom(cfg.log, stats)
		lat := summarize(open).scaled(1e-6)
		rep.values["setup_rtt_ms_p50"] = lat.P50
		rep.values["carried_ratio"] = 1 - ratio(float64(refused), float64(attempted))
		logLatency(cfg.log, "OpenConnection host time", "ms", lat)
		return rep, nil
	}

	// The traced pass: set 0 again, spans on, the counting subscriber
	// attached.
	tr := newTracer()
	root := tr.begin("pass", w.name)
	tp, err := pass(0, simRunOpts{tr: tr, counts: true})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	v := zeroPerLayer()
	c, tc := tp.counts, tp.traced
	tot := totalsByName(tr.spans)
	inline := tot["core.place"].Total + tot["core.open"].Total + tot["core.handoff"].Total + tot["core.close"].Total
	v["des.events_fired"] = float64(c.Fired)
	v["des.max_pending"] = float64(c.MaxPending)
	v["des.run_until_s"] = float64(tot["des.run_until"].Total) / 1e9
	v["des.deferred_s"] = float64(tot["des.run_until"].Self) / 1e9
	v["core.inline_s"] = float64(inline) / 1e9
	v["eventbus.published"] = float64(c.Published)
	v["eventbus.adaptation_rounds"] = float64(tc.AdaptationRounds)
	v["admission.decisions"] = float64(tc.Decisions)
	v["admission.refused"] = float64(tc.Refused)
	v["admission.admit_ratio"] = ratio(float64(tc.Decisions-tc.Refused), float64(tc.Decisions))
	v["signal.sessions"] = float64(tc.SignalCommits + tc.SignalAbts)
	v["signal.aborts"] = float64(tc.SignalAbts)
	v["signal.retransmits"] = float64(tc.Retransmits)
	v["maxmin.rounds"] = float64(tc.AdaptationRounds)
	v["maxmin.rounds_per_op"] = ratio(float64(tc.AdaptationRounds), float64(tp.ops))
	v["maxmin.control_msgs"] = float64(c.MaxminMessages)
	v["maxmin.sessions"] = float64(c.MaxminSess)
	v["maxmin.converged"] = float64(tc.Converged)
	v["mobility.moves"] = float64(tp.ops)
	v["mobility.gen_s"] = float64(tot["setup.mobility"].Total) / 1e9
	hand := sorted(durations(tr.spans, "core.handoff"))
	v["core.handoff_us_p50"] = percentile(hand, 50) / 1e3
	v["core.handoff_us_p99"] = percentile(hand, 99) / 1e3
	v["core.open_us_p50"] = median(durations(tr.spans, "core.open")) / 1e3
	v["core.close_us_p50"] = median(durations(tr.spans, "core.close")) / 1e3
	v["core.blocked"] = float64(c.Blocked)
	v["core.dropped"] = float64(c.Dropped)
	v["core.block_rate"] = ratio(float64(c.Blocked), float64(c.Requested))
	v["core.handoff_drop_rate"] = ratio(float64(c.Dropped), float64(c.HandoffAttempts))
	v["reserve.advance_reservations"] = float64(c.AdvanceReservations)
	v["reserve.pool_claims"] = float64(c.Pool)
	v["predict.predicted_share"] = ratio(float64(tc.PredictedHandoffs), float64(tc.HandoffLatencies))
	v["obs.armed_overhead_pct"] = overheadPct(armed)
	v["obs.trace_overhead_pct"] = overheadPct(recorded)
	v["trace.overhead_pct"] = overheadPct([]float64{tp.runS / plain[0].runS})

	// Probes run at the sizes the traced pass saw.
	probes, err := runProbes(tr, probeInputs{
		connsPerLink: int(math.Round(ratio(float64(c.SumConnsPerLink), float64(c.LoadedLinks)))),
		queueDepth:   c.MaxPending,
		problem:      tp.problem,
		smoke:        cfg.smoke,
	})
	if err != nil {
		return nil, err
	}
	for name, x := range probes {
		v[name] = x
	}
	rep.values, rep.spans = v, tr.spans
	logSelfTimes(cfg.log, tr.spans)
	return rep, nil
}

func addCounts(a, b simCounts) simCounts {
	a.Ops += b.Ops
	a.Requested += b.Requested
	a.Blocked += b.Blocked
	a.HandoffAttempts += b.HandoffAttempts
	a.Dropped += b.Dropped
	a.AdvanceReservations += b.AdvanceReservations
	a.Pool += b.Pool
	a.RateUpdates += b.RateUpdates
	a.Fired += b.Fired
	a.Published += b.Published
	a.MaxPending = max(a.MaxPending, b.MaxPending)
	a.MaxminMessages += b.MaxminMessages
	a.MaxminSess += b.MaxminSess
	a.LiveAtEnd += b.LiveAtEnd
	a.SumConnsPerLink += b.SumConnsPerLink
	a.LoadedLinks += b.LoadedLinks
	return a
}

func addTraceCounts(a, b simTraceCounts) simTraceCounts {
	a.Decisions += b.Decisions
	a.Refused += b.Refused
	a.AdaptationRounds += b.AdaptationRounds
	a.Converged += b.Converged
	a.PredictedHandoffs += b.PredictedHandoffs
	a.HandoffLatencies += b.HandoffLatencies
	a.SignalCommits += b.SignalCommits
	a.SignalAbts += b.SignalAbts
	a.Retransmits += b.Retransmits
	return a
}

// logSelfTimes prints the traced profile: total and self time per span
// name, largest self time first.
func logSelfTimes(w io.Writer, spans []span) {
	tot := totalsByName(spans)
	names := sortx.Keys(tot)
	sort.SliceStable(names, func(i, j int) bool { return tot[names[i]].Self > tot[names[j]].Self })
	fmt.Fprintln(w, "  traced profile (span: count, total s, self s):")
	for _, n := range names {
		t := tot[n]
		fmt.Fprintf(w, "    %-34s %8d %10.4f %10.4f\n", n, t.Count, float64(t.Total)/1e9, float64(t.Self)/1e9)
	}
}

// Live-loopback-churn: sizes of the script and the settle time after it.
const (
	loopbackSteps   = 600
	loopbackSpacing = 0.25
	loopbackSettle  = 3.0
)

// liveFailures is the contract's failure count for a live run.
func liveFailures(res *testnet.Result) int64 {
	return int64(res.Aborted + res.SkippedOps + res.FrameDrops + len(res.Violations))
}

// standUp times one empty-script run of the plane: building the campus,
// the nodes and the transport, the hello exchange, shutdown and the final
// audit — the live plane's fixed set-up cost, which testnet.Run does not
// otherwise expose on its own.
func standUp(cfg testnet.Config) (float64, error) {
	cfg.Script = []testnet.Step{}
	t0 := time.Now()
	res, err := testnet.Run(cfg)
	if err != nil {
		return 0, err
	}
	if len(res.Violations) > 0 {
		return 0, fmt.Errorf("empty-script run: violations: %v", res.Violations)
	}
	return time.Since(t0).Seconds(), nil
}

// loopbackStandUps is how many empty-script runs one pass times back to
// back for setup_s: the first pays for memory the collector just gave
// back, the median of several does not.
const loopbackStandUps = 5

// livePass is one timed loopback run of one script.
type livePass struct {
	passStats
	seed   int64
	script []testnet.Step
	res    *testnet.Result
	trace  [sha256.Size]byte // of res.ControllerTrace, for check (d)
}

// runLoopback runs live-loopback-churn. Pass k runs, timed, the script
// generated from seed --seed+1+k; the warm-up and the first timed pass
// share script 0 for check (a). Once the time budget is spent every
// script is run again in ModeSim and its controller trace compared with
// the timed pass's — check (d), outside the budget so that the reference
// runs neither shorten the measurement nor leave their garbage in front
// of it. When tracing, each plain pass is followed by one behind an empty
// netfaults plan on the same script.
func runLoopback(cfg runConfig) (*report, error) {
	const name = "live-loopback-churn"
	steps := loopbackSteps
	if cfg.smoke {
		steps /= 10
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}
	scriptSecs := float64(steps) * loopbackSpacing
	horizon := scriptSecs + loopbackSettle
	fmt.Fprintf(cfg.log, "%s: %d steps every %g sim-s, pool cap %d, pass k runs the script of seed %d + k\n",
		name, steps, loopbackSpacing, livePool, cfg.seed+1)

	frames := map[int64]int{} // script seed → frames sent, for check (a)
	pass := func(k int, faults *netfaults.Plan) (*livePass, error) {
		runtime.GC()
		p := &livePass{seed: cfg.seed + 1 + int64(k), passStats: passStats{ops: steps, portableSecs: livePool * scriptSecs}}
		t0 := time.Now()
		p.script = liveScript(env, p.seed, steps, loopbackSpacing)
		p.setupS = time.Since(t0).Seconds()
		c := testnet.Config{Mode: testnet.ModeLoopback, Script: p.script, Horizon: horizon, Lenient: true, Faults: faults}
		var ups []float64
		for i := 0; i < loopbackStandUps; i++ {
			s, err := standUp(c)
			if err != nil {
				return nil, err
			}
			ups = append(ups, s)
		}
		p.setupS += median(ups)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		res, err := testnet.Run(c)
		p.runS = time.Since(t1).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		if n := liveFailures(res); n > 0 {
			return nil, fmt.Errorf("%s script %d: %d aborted, %d skipped, %d frames unacked, violations %v: the script must not fail",
				name, p.seed, res.Aborted, res.SkippedOps, res.FrameDrops, res.Violations)
		}
		if n, ok := frames[p.seed]; ok && n != res.FramesSent {
			return nil, fmt.Errorf("check (a): %s script %d: %d frames this pass, %d before", name, p.seed, res.FramesSent, n)
		}
		frames[p.seed] = res.FramesSent
		p.res, p.trace = res, sha256.Sum256(res.ControllerTrace)
		return p, nil
	}
	// reference runs a pass's script in ModeSim and holds the pass to it.
	reference := func(p *livePass) (*testnet.Result, error) {
		ref, err := testnet.Run(testnet.Config{Mode: testnet.ModeSim, Script: p.script, Horizon: horizon, Lenient: true})
		if err != nil {
			return nil, err
		}
		if n := liveFailures(ref); n > 0 {
			return nil, fmt.Errorf("%s script %d (ModeSim): %d aborted, %d skipped, violations %v", name, p.seed, ref.Aborted, ref.SkippedOps, ref.Violations)
		}
		if sha256.Sum256(ref.ControllerTrace) != p.trace {
			return nil, fmt.Errorf("check (d): %s script %d: controller trace differs from the ModeSim run of the same script", name, p.seed)
		}
		return ref, nil
	}

	if _, err := pass(0, nil); err != nil { // warm-up, untimed
		return nil, err
	}
	budget, minPasses := passBudget(cfg)
	var plain []*livePass
	var wrapped []float64 // wrapped / plain pass-time ratios
	start := time.Now()
	for k := 0; k < minPasses || time.Since(start).Seconds() < budget; k++ {
		p, err := pass(k, nil)
		if err != nil {
			return nil, err
		}
		if k > 0 {
			p.res = nil // only pass 0's traces are read again
		}
		plain = append(plain, p)
		if cfg.trace {
			v, err := pass(k, &netfaults.Plan{})
			if err != nil {
				return nil, err
			}
			if v.trace != p.trace {
				return nil, fmt.Errorf("%s script %d: an empty netfaults plan changed the controller trace", name, p.seed)
			}
			wrapped = append(wrapped, v.runS/p.runS)
		}
	}
	var ref0 *testnet.Result
	for i, p := range plain {
		ref, err := reference(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref0 = ref
		}
	}
	rep := &report{attempted: int64(steps * len(plain))}
	fmt.Fprintf(cfg.log, "  %d passes, %d scripts of %d steps, each byte-identical to its ModeSim run; script %d: %d commits, %d frames\n",
		len(plain), len(plain), steps, plain[0].seed, plain[0].res.Commits, plain[0].res.FramesSent)

	if !cfg.trace {
		// The sim clock's set-up latency is a modelled constant (7.6 ms on
		// 4 hops; per-layer signal.modelled_setup_ms), so what a caller of
		// this plane waits for is host time: one sample per pass, the
		// pass's mean host time per script step.
		stats := make([]passStats, len(plain))
		var stepMS []float64
		for i, p := range plain {
			stats[i] = p.passStats
			stepMS = append(stepMS, p.runS*1e3/float64(p.ops))
		}
		rep.values = endToEndFrom(cfg.log, stats)
		lat := summarize(stepMS)
		rep.values["setup_rtt_ms_p50"] = lat.P50
		rep.values["carried_ratio"] = 1 // liveFailures let no aborted set-up through
		logLatency(cfg.log, "host time per step", "ms", lat)
		return rep, nil
	}

	// The traced pass: script 0 again under a span, then its traces parsed.
	tr := newTracer()
	root := tr.begin("pass", name)
	sp := tr.begin("testnet.run", "")
	tp, err := pass(0, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	v, err := liveLayerCounts(tr, tp.script, tp.res, tp.res.NodeTraces)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	refTrace, err := parseControllerTrace(ref0.ControllerTrace)
	if err != nil {
		return nil, err
	}
	modelSetup, modelHandoff, _, err := stepLatencies(tp.script, refTrace)
	if err != nil {
		return nil, err
	}
	tot := totalsByName(tr.spans)
	v["signal.modelled_setup_ms"] = median(modelSetup)
	v["signal.setup_rtt_ms_p90"] = percentile(sorted(modelSetup), 90)
	v["signal.handoff_rtt_ms_p50"] = median(modelHandoff)
	v["netfaults.wrap_overhead_pct"] = overheadPct(wrapped)
	traced := tp.runS + float64(tot["trace.parse.controller"].Total+tot["trace.parse.nodes"].Total)/1e9
	v["trace.overhead_pct"] = overheadPct([]float64{traced / plain[0].runS})
	if err := liveProbes(tr, env, tp.script, tp.res, v, cfg.smoke); err != nil {
		return nil, err
	}
	rep.values, rep.spans = v, tr.spans
	logSelfTimes(cfg.log, tr.spans)
	return rep, nil
}

// liveLayerCounts parses a live run's controller and node traces into
// the [c] metrics, under trace.parse spans.
func liveLayerCounts(tr *tracer, script []testnet.Step, res *testnet.Result, nodeTraces map[string][]byte) (map[string]float64, error) {
	sp := tr.begin("trace.parse.controller", "")
	ts, err := parseControllerTrace(res.ControllerTrace)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("trace.parse.nodes", "")
	fs, err := parseNodeTraces(nodeTraces)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	steps := float64(len(script))
	decisions := float64(ts.ByType["admission-decision"])
	v := zeroPerLayer()
	v["eventbus.published"] = float64(ts.Lines)
	v["eventbus.adaptation_rounds"] = float64(ts.ByType["adaptation-round"])
	v["admission.decisions"] = decisions
	v["admission.refused"] = float64(res.Aborted)
	v["admission.admit_ratio"] = ratio(decisions-float64(res.Aborted), decisions)
	v["signal.sessions"] = float64(res.Sessions)
	v["signal.aborts"] = float64(ts.ByType["signal-abort"])
	v["signal.retransmits"] = float64(ts.ByType["control-retransmit"])
	v["maxmin.rounds"] = float64(ts.ByType["adaptation-round"])
	v["maxmin.rounds_per_op"] = float64(ts.ByType["adaptation-round"]) / steps
	v["maxmin.control_msgs"] = float64(ts.Messages)
	v["maxmin.sessions"] = float64(ts.Sessions)
	v["maxmin.converged"] = float64(ts.ByType["maxmin-converged"])
	v["mobility.moves"] = steps
	v["wire.frames_total"] = float64(fs.Frames)
	v["wire.frames_per_op"] = float64(fs.Frames) / steps
	v["wire.bytes_per_frame"] = ratio(float64(fs.Bytes), float64(fs.Frames))
	for _, k := range wireKinds {
		v["wire.frames_by_kind."+k] = float64(fs.ByKind[k])
	}
	v["testnet.frame_drops"] = float64(res.FrameDrops)
	v["testnet.commits"] = float64(res.Commits)
	v["testnet.aborted"] = float64(res.Aborted)
	v["testnet.skipped"] = float64(res.SkippedOps)
	return v, nil
}

// oracleGap is the largest distance between an allocation and the
// water-filling oracle on the same instance.
func oracleGap(p maxmin.Problem, rates map[string]float64) (float64, error) {
	if len(p.Conns) == 0 {
		return 0, nil
	}
	oracle, err := maxmin.WaterFill(p)
	if err != nil {
		return 0, err
	}
	return oracle.MaxDiff(rates), nil
}

// liveProbes runs the probes at the sizes a live script leaves behind
// and checks the reconstructed final problem against the run's rates.
func liveProbes(tr *tracer, env *topology.Environment, script []testnet.Step, res *testnet.Result, v map[string]float64, smoke bool) error {
	problem, err := finalProblem(env, script)
	if err != nil {
		return err
	}
	gap, err := oracleGap(problem, res.Rates)
	if err != nil {
		return err
	}
	if gap > gapTol {
		return fmt.Errorf("check (c): final rates are %g from the water-filling oracle", gap)
	}
	v["maxmin.oracle_gap"] = gap
	perLink := map[string]int{}
	sum := 0
	for _, c := range problem.Conns {
		for _, l := range c.Path {
			perLink[l]++
			sum++
		}
	}
	mix := map[string]int{}
	for _, k := range wireKinds {
		mix[k] = int(v["wire.frames_by_kind."+k])
	}
	probes, err := runProbes(tr, probeInputs{
		connsPerLink: int(math.Round(ratio(float64(sum), float64(len(perLink))))),
		queueDepth:   4 * len(problem.Conns),
		problem:      problem,
		frameMix:     mix,
		smoke:        smoke,
	})
	if err != nil {
		return err
	}
	for name, x := range probes {
		v[name] = x
	}
	return nil
}

// Live-udp-paced: open loop at a fixed rate. udpSpacing was calibrated
// once on the seed code (README, "Calibration") and is frozen.
const (
	udpSpacing = 0.010 // seconds between steps: 100 ops/s offered
	udpSettle  = 1.5   // wall seconds after the last step before the audit
	udpSlack   = 1.0   // of --seconds, left for set-up, the audit and parsing
	udpStandUp = 15    // empty-script runs timed for setup_s
)

// udpRun is one paced run and what was measured around it.
type udpRun struct {
	res            *testnet.Result
	nodeTraces     map[string][]byte
	wallS          float64
	mallocs, bytes uint64
}

// pacedRun stands three nodes up and plays the script against them.
func pacedRun(tr *tracer, names []string, script []testnet.Step, horizon float64) (*udpRun, error) {
	nodes, err := startUDPNodes(names)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sp := tr.begin("testnet.run", "")
	res, err := testnet.Run(testnet.Config{Mode: testnet.ModeUDP, Peers: nodes.peers, Script: script, Horizon: horizon, Lenient: true})
	tr.end(sp)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		nodes.abort()
		return nil, err
	}
	traces, err := nodes.wait()
	if err != nil {
		return nil, err
	}
	return &udpRun{res: res, nodeTraces: traces, wallS: wall, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

func runUDP(cfg runConfig) (*report, error) {
	const name = "live-udp-paced"
	steps := int((cfg.seconds - udpSlack - udpSettle) / udpSpacing)
	if cfg.smoke {
		steps = 100
	}
	if steps < 100 {
		return nil, fmt.Errorf("%s: --seconds %g leaves no room for a paced run", name, cfg.seconds)
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}
	names := testnet.NewCluster(env).Names
	script := liveScript(env, cfg.seed+1, steps, udpSpacing)
	horizon := float64(steps)*udpSpacing + udpSettle
	fmt.Fprintf(cfg.log, "%s: %d steps every %g s (%.0f ops/s offered), seed %d, %d nodes on 127.0.0.1 — host loopback, not a real link\n",
		name, steps, udpSpacing, 1/udpSpacing, cfg.seed+1, len(names))

	// Set-up: generate, bind, serve, hello, shut down — several times.
	var setups []float64
	for i := 0; i < udpStandUp; i++ {
		t0 := time.Now()
		liveScript(env, cfg.seed+1, steps, udpSpacing)
		nodes, err := startUDPNodes(names)
		if err != nil {
			return nil, err
		}
		if _, err := standUp(testnet.Config{Mode: testnet.ModeUDP, Peers: nodes.peers, Horizon: 0.001}); err != nil {
			nodes.abort()
			return nil, err
		}
		if _, err := nodes.wait(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := tr.begin("pass", name)
	run, err := pacedRun(tr, names, script, horizon)
	if err != nil {
		return nil, err
	}
	// A host stall longer than liveCooldown lets a step overtake the
	// session it depends on, and testnet skips it. That invalidates the
	// open loop, not the program: the run is repeated once, and a second
	// failure is reported as it is.
	if n := liveFailures(run.res); n > 0 && len(run.res.Violations) == 0 {
		fmt.Fprintf(cfg.log, "  open loop did not hold (%d aborted, %d skipped, %d frames unacked): repeating the run once\n",
			run.res.Aborted, run.res.SkippedOps, run.res.FrameDrops)
		if run, err = pacedRun(tr, names, script, horizon); err != nil {
			return nil, err
		}
	}
	res := run.res
	if len(res.Violations) > 0 { // check (e)
		return nil, fmt.Errorf("check (e): %s: violations: %v", name, res.Violations)
	}
	rep := &report{attempted: int64(steps), failed: liveFailures(res)}

	ts, err := parseControllerTrace(res.ControllerTrace)
	if err != nil {
		return nil, err
	}
	if len(ts.Commits) == 0 {
		return nil, errors.New(name + ": no set-up committed")
	}
	fmt.Fprintf(cfg.log, "  %d steps in %.3f s wall; %d commits, %d aborted, %d skipped, %d frames (%d unacked)\n",
		steps, run.wallS, res.Commits, res.Aborted, res.SkippedOps, res.FramesSent, res.FrameDrops)
	// Matching commits to steps needs every session to have committed.
	var setupMS, handoffMS, lagMS []float64
	if rep.failed == 0 {
		if setupMS, handoffMS, lagMS, err = stepLatencies(script, ts); err != nil {
			return nil, err
		}
	} else {
		for _, c := range ts.Commits {
			setupMS = append(setupMS, c.Latency*1e3)
		}
	}
	logLatency(cfg.log, "generator lag", "ms", summarize(lagMS))

	if !cfg.trace {
		setup := summarize(setupMS)
		scriptSecs := float64(steps) * udpSpacing
		rep.values = map[string]float64{
			"setup_s":             median(setups),
			"portable_secs_per_s": livePool * scriptSecs / run.wallS,
			"ops_per_s":           float64(steps-res.SkippedOps-res.Aborted) / ts.Commits[len(ts.Commits)-1].T,
			"allocs_per_op":       float64(run.mallocs) / float64(steps),
			"alloc_kb_per_op":     float64(run.bytes) / 1e3 / float64(steps),
			"setup_rtt_ms_p50":    setup.P50,
			"carried_ratio":       ratio(float64(res.Commits), float64(res.Commits+res.Aborted)),
		}
		logLatency(cfg.log, "set-up RTT", "ms", setup)
		logLatency(cfg.log, "handoff RTT", "ms", summarize(handoffMS))
		return rep, nil
	}

	v, err := liveLayerCounts(tr, script, res, run.nodeTraces)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	// The modelled floor: the same script on the simulator clock.
	refRes, err := testnet.Run(testnet.Config{Mode: testnet.ModeSim, Script: script, Horizon: horizon, Lenient: true})
	if err != nil {
		return nil, err
	}
	refTrace, err := parseControllerTrace(refRes.ControllerTrace)
	if err != nil {
		return nil, err
	}
	modelSetup, _, _, err := stepLatencies(script, refTrace)
	if err != nil {
		return nil, err
	}
	tot := totalsByName(tr.spans)
	v["signal.modelled_setup_ms"] = median(modelSetup)
	v["signal.setup_rtt_ms_p90"] = percentile(sorted(setupMS), 90)
	v["signal.handoff_rtt_ms_p50"] = median(handoffMS)
	v["testnet.generator_lag_ms_p99"] = percentile(sorted(lagMS), 99)
	v["trace.overhead_pct"] = float64(tot["trace.parse.controller"].Total+tot["trace.parse.nodes"].Total) / float64(tot["testnet.run"].Total) * 100
	if err := liveProbes(tr, env, script, res, v, cfg.smoke); err != nil {
		return nil, err
	}
	rep.values, rep.spans = v, tr.spans
	logSelfTimes(cfg.log, tr.spans)
	return rep, nil
}
