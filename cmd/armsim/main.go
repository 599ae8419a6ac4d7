// Command armsim runs an integrated resource-management scenario: a
// population of portables random-walks over a chosen topology while each
// holds a QoS-bounded connection; the full control loop (admission,
// prediction, advance reservation, adaptation, handoff) runs on the
// discrete-event simulator and the final metrics are printed. The scenario
// is the walk every campus experiment runs (armnet.RunWalk): at equal
// seed and workload flags, -trace writes the bytes
// `paperfigs -exp campus -trace` writes.
//
// Usage:
//
//	armsim -topology campus -portables 24 -duration 3600 -mode predictive
//	armsim -topology figure4 -mode brute-force -seed 7
//	armsim -topology campus -replications 16 -parallel 8
//
// With -replications R the scenario runs R times under decorrelated seeds
// derived from -seed (replication 0 keeps it), fanned across -parallel
// workers. Replication is deterministic: the per-replication table is
// identical at any worker count; pool stats (wall time, speedup) print to
// stderr.
//
// With -trace FILE every control-plane event (admission decisions,
// handoffs, holds/commits/aborts, reservations, rate changes, …) is
// written to FILE as JSON Lines, stamped with simulated time and a
// per-run sequence number. Replications append in replication order, so
// the file is byte-identical at any -parallel value. Use -mobility-trace
// to replay a recorded CSV movement trace (see cmd/tracegen) instead of
// generating a random walk.
//
// With -fault-plan FILE the run executes a deterministic fault-injection
// schedule (see internal/faults for the grammar): control messages are
// dropped, duplicated, or delayed probabilistically, and components —
// links, cells, zone profile servers, the signaling plane — fail and
// recover at scheduled times. Connections then open through the
// signaling plane so setups are exposed to message faults; tune it with
// -signal-timeout and -signal-retries:
//
//	armsim -topology campus -fault-plan chaos.plan -trace - -seed 1
//
// With -overload-policy FILE (or the literal "default") the staged
// overload-control subsystem is armed (see internal/overload for the
// policy grammar): per-cell utilization detection, degrade cascades,
// priority load shedding, and a signaling circuit breaker. The report
// then includes setups-shed, degrade-cascades, breaker-trips and
// breaker-fast-fails counters:
//
//	armsim -topology campus -overload-policy default -portables 48
//
// The strategy flags swap the paper's algorithms for registered rivals:
// -allocator selects the rate-allocation protocol (maxmin is the paper's
// §5.3.1 ADVERTISE/UPDATE protocol; erica is the single-round-trip
// explicit-rate scheme) and -admitter the admission control (table2 is
// the paper's test battery; measured is headroom-based measurement
// admission). -arena ignores -replications and instead runs every
// allocator/admitter pair head-to-head over the *identical* campus
// workload, printing a comparative table (utilization, drops, blocking,
// control overhead):
//
//	armsim -allocator erica -admitter measured -portables 24
//	armsim -arena -seed 1 -portables 24 -bmin 256e3 -bmax 1.2e6
//
// The observability flags arm the deterministic instrument and span
// layer (zero cost and zero perturbation when off): -summary prints the
// paper-§7-style results digest; -obs-snapshot/-obs-json write the
// merged instrument snapshot (Prometheus text / JSON, byte-identical at
// any -parallel value); -spans streams connection lifecycle spans as
// JSONL; -telemetry-addr serves a live wall-clock endpoint (/metrics,
// /healthz, /spans tail, /debug/pprof) while the replications run,
// lingering -telemetry-linger seconds after they finish:
//
//	armsim -replications 8 -parallel 4 -summary -obs-snapshot run.prom
//	armsim -telemetry-addr 127.0.0.1:9090 -replications 16 -telemetry-linger 60
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"armnet"
	"armnet/internal/core"
	"armnet/internal/mobility"
	"armnet/internal/runner"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

func main() {
	topo := flag.String("topology", "campus", "topology: campus, figure4, meetingwing, corridor")
	portables := flag.Int("portables", 24, "number of portables")
	duration := flag.Float64("duration", 3600, "simulated seconds")
	dwell := flag.Float64("dwell", 180, "mean cell dwell time (s)")
	seed := flag.Int64("seed", 1, "random seed")
	modeName := flag.String("mode", "predictive", "reservation mode: predictive, brute-force, none")
	allocator := flag.String("allocator", "", "rate-allocation strategy (default maxmin, the paper's protocol); see armnet.Allocators")
	admitter := flag.String("admitter", "", "admission-control strategy (default table2, the paper's tests); see armnet.Admitters")
	arena := flag.Bool("arena", false, "run every allocator/admitter pair head-to-head over the identical campus workload and print the comparative table")
	topoFile := flag.String("topology-file", "", "build the environment from a JSON spec instead of a named topology")
	bmin := flag.Float64("bmin", 32e3, "connection b_min (bits/s)")
	bmax := flag.Float64("bmax", 128e3, "connection b_max (bits/s)")
	mobilityTrace := flag.String("mobility-trace", "", "replay a CSV mobility trace (see cmd/tracegen) instead of generating one")
	tracePath := flag.String("trace", "", "write the control-plane event stream as JSON Lines to this file (- for stdout)")
	faultPlan := flag.String("fault-plan", "", "inject faults from this plan file (drop/dup/delay rules and timed outages); connections then open through the signaling plane")
	overloadPolicy := flag.String("overload-policy", "", "arm staged overload control from this policy file (see internal/overload for the grammar); 'default' uses the built-in policy")
	signalTimeout := flag.Float64("signal-timeout", 0, "signaling setup deadline in seconds (0 = scale with route hop count)")
	signalRetries := flag.Int("signal-retries", 0, "per-hop control-message retransmission budget (0 = default)")
	replications := flag.Int("replications", 1, "independent scenario replications under derived seeds")
	parallel := flag.Int("parallel", 1, "worker count for replications (0 = GOMAXPROCS); output is identical at any worker count")
	obsFlag := flag.Bool("obs", false, "arm the deterministic observability layer (implied by the flags below)")
	obsSnapshot := flag.String("obs-snapshot", "", "write the merged instrument snapshot as Prometheus text to this file (- for stdout)")
	obsJSON := flag.String("obs-json", "", "write the merged instrument snapshot as JSON to this file (- for stdout)")
	spansPath := flag.String("spans", "", "write the JSONL connection-lifecycle spans to this file (- for stdout); replications append in order")
	summary := flag.Bool("summary", false, "print the paper-§7-style results summary derived from the merged snapshot")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live wall-clock telemetry on this address (/metrics, /healthz, /spans, /debug/pprof)")
	telemetryLinger := flag.Float64("telemetry-linger", 0, "keep the telemetry endpoint up this many wall-clock seconds after the run finishes")
	flag.Parse()

	sc := scenario{
		topo: *topo, topoFile: *topoFile,
		portables: *portables, duration: *duration, dwell: *dwell,
		modeName: *modeName, bmin: *bmin, bmax: *bmax,
		allocator: *allocator, admitter: *admitter, arena: *arena,
		mobilityPath: *mobilityTrace, tracePath: *tracePath,
		faultPath: *faultPlan, overloadPath: *overloadPolicy,
		sigTimeout: *signalTimeout, sigRetries: *signalRetries,
		obsSnapshotPath: *obsSnapshot, obsJSONPath: *obsJSON,
		spansPath: *spansPath, summary: *summary,
		telemetryAddr: *telemetryAddr, telemetryLinger: *telemetryLinger,
	}
	// Any consumer of the observability layer arms it.
	sc.obs = *obsFlag || sc.obsSnapshotPath != "" || sc.obsJSONPath != "" ||
		sc.spansPath != "" || sc.summary || sc.telemetryAddr != ""
	if err := run(sc, *seed, *replications, *parallel, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "armsim:", err)
		os.Exit(1)
	}
}

// scenario describes one armsim configuration. It carries only immutable
// inputs; every replication builds its own environment, network and trace
// so that concurrent trials share no mutable state.
type scenario struct {
	topo, topoFile string
	topoJSON       []byte // parsed per replication (envs are mutable)
	portables      int
	duration       float64
	dwell          float64
	modeName       string
	mode           armnet.ReservationMode
	bmin, bmax     float64
	allocator      string
	admitter       string
	arena          bool
	mobilityPath   string
	trace          *mobility.Trace // replayed read-only when set
	tracePath      string          // JSONL event-trace destination ("" = off)
	faultPath      string
	faults         *armnet.FaultPlan // parsed once; injectors only read it
	overloadPath   string
	overload       *armnet.OverloadPolicy // parsed once; controllers copy it
	sigTimeout     float64
	sigRetries     int

	// Observability outputs. obs is set when any of them is requested;
	// an armed layer changes nothing about the simulation (the event
	// trace stays byte-identical), it only adds exports.
	obs             bool
	obsSnapshotPath string
	obsJSONPath     string
	spansPath       string
	summary         bool
	telemetryAddr   string
	telemetryLinger float64
}

// prepare resolves the mode, loads the optional topology spec and replay
// trace once, and validates the inputs shared by every replication.
func (sc *scenario) prepare() error {
	sc.mode = armnet.ModePredictive
	switch sc.modeName {
	case "predictive":
	case "brute-force":
		sc.mode = armnet.ModeBruteForce
	case "none":
		sc.mode = armnet.ModeNone
	default:
		return fmt.Errorf("unknown mode %q", sc.modeName)
	}
	if sc.topoFile != "" {
		data, err := os.ReadFile(sc.topoFile)
		if err != nil {
			return err
		}
		sc.topoJSON = data
		sc.topo = sc.topoFile
	}
	if sc.faultPath != "" {
		f, err := os.Open(sc.faultPath)
		if err != nil {
			return err
		}
		sc.faults, err = armnet.ParseFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if sc.overloadPath != "" {
		if sc.overloadPath == "default" {
			def := armnet.DefaultOverloadPolicy()
			sc.overload = &def
		} else {
			f, err := os.Open(sc.overloadPath)
			if err != nil {
				return err
			}
			sc.overload, err = armnet.ParseOverloadPolicy(f)
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	if sc.mobilityPath != "" {
		f, err := os.Open(sc.mobilityPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sc.trace, err = mobility.ReadCSV(f)
		if err != nil {
			return err
		}
		if d := sc.trace.Duration(); d > sc.duration {
			sc.duration = d
		}
	}
	return nil
}

// buildEnv constructs a fresh environment for one replication. Environments
// record portable placements, so they must never be shared across trials.
func (sc scenario) buildEnv() (*armnet.Environment, error) {
	if sc.topoJSON != nil {
		return armnet.EnvironmentFromJSON(bytes.NewReader(sc.topoJSON))
	}
	return topology.BuildNamed(sc.topo)
}

// replication is one finished trial: the manager for reporting plus its
// optional JSONL event trace and observability exports.
type replication struct {
	mgr   *core.Manager
	trace []byte
	snap  *armnet.ObsSnapshot
	spans []byte
}

// campusConfig is the scenario as the shared walk reads it. The arena
// overwrites the strategy and observability fields pair by pair.
func (sc scenario) campusConfig(seed int64) armnet.CampusConfig {
	return armnet.CampusConfig{
		Seed: seed, Portables: sc.portables, Duration: sc.duration,
		Dwell: sc.dwell, Mode: sc.mode, BMin: sc.bmin, BMax: sc.bmax,
		Allocator: sc.allocator, Admitter: sc.admitter, Obs: sc.obs,
	}
}

// runOnce executes one self-contained replication under the given seed:
// the walk every campus experiment runs (armnet.RunWalk), on this
// scenario's environment, fault plan, overload policy and signaling
// options, replaying the recorded mobility trace when one was given.
func (sc scenario) runOnce(seed int64) (replication, error) {
	env, err := sc.buildEnv()
	if err != nil {
		return replication{}, err
	}
	base := armnet.Config{Faults: sc.faults, Overload: sc.overload}
	base.Signal.Timeout = sc.sigTimeout
	base.Signal.MaxRetries = sc.sigRetries
	cfg := sc.campusConfig(seed)
	var spanBuf, traceBuf bytes.Buffer
	if sc.spansPath != "" || sc.telemetryAddr != "" {
		cfg.Spans = &spanBuf
	}
	var traceW io.Writer
	if sc.tracePath != "" {
		traceW = &traceBuf
	}
	mgr, err := armnet.RunWalk(env, base, cfg, sc.trace, traceW)
	if err != nil {
		return replication{}, err
	}
	rep := replication{mgr: mgr, trace: traceBuf.Bytes(), spans: spanBuf.Bytes()}
	if mgr.Obs != nil {
		rep.snap = mgr.Obs.Snapshot()
	}
	return rep, nil
}

// run executes the scenario (optionally replicated) and prints the report.
func run(sc scenario, seed int64, replications, parallel int, out, statsOut io.Writer) error {
	if err := sc.prepare(); err != nil {
		return err
	}
	if sc.arena {
		return runArena(sc, seed, parallel, out, statsOut)
	}
	if replications <= 0 {
		replications = 1
	}
	seeds := runner.Seeds(seed, replications)
	prog := runner.NewProgress(replications)
	ctx := runner.WithProgress(context.Background(), prog)
	var tel *armsimTelemetry
	if sc.telemetryAddr != "" {
		var err error
		tel, err = newTelemetry(sc.telemetryAddr, replications, prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(statsOut, "armsim: telemetry on http://%s\n", tel.srv.Addr())
		defer func() {
			if sc.telemetryLinger > 0 {
				fmt.Fprintf(statsOut, "armsim: telemetry lingering %.0fs\n", sc.telemetryLinger)
				time.Sleep(time.Duration(sc.telemetryLinger * float64(time.Second)))
			}
			tel.close()
		}()
	}
	reps, st, err := runner.Map(ctx, parallel, replications,
		func(_ context.Context, i int) (replication, error) {
			rep, err := sc.runOnce(seeds[i])
			if err == nil && tel != nil {
				tel.publish(i, rep.snap, rep.spans)
			}
			return rep, err
		})
	if err != nil {
		return err
	}
	if sc.tracePath != "" {
		if err := writeTrace(sc.tracePath, reps, out); err != nil {
			return err
		}
	}
	if sc.obs {
		if err := writeObs(sc, reps, out); err != nil {
			return err
		}
	}
	if replications == 1 {
		printDetailed(out, sc, seeds[0], reps[0].mgr)
		return nil
	}
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d replications=%d\n",
		sc.topo, sc.portables, sc.duration, sc.mode, seed, replications)
	tb := stats.Table{Header: []string{"seed", "handoffs", "drop-rate", "block-rate", "reservations", "pool-claims"}}
	var dropSum, blockSum float64
	for i, rep := range reps {
		c := rep.mgr.Met.Counter
		drop := c.Ratio(armnet.CtrHandoffDropped, armnet.CtrHandoffTried)
		block := c.Ratio(armnet.CtrNewBlocked, armnet.CtrNewRequested)
		dropSum += drop
		blockSum += block
		tb.AddRow(seeds[i], c.Get(armnet.CtrHandoffTried), drop, block,
			c.Get(armnet.CtrAdvanceResv), c.Get(armnet.CtrPoolClaims))
	}
	fmt.Fprint(out, tb.String())
	n := float64(replications)
	fmt.Fprintf(out, "mean drop rate: %.4f  mean block rate: %.4f\n", dropSum/n, blockSum/n)
	fmt.Fprintf(statsOut, "armsim: %s\n", st)
	return nil
}

// runArena runs the head-to-head strategy roster over the identical
// campus workload and prints the comparative snapshot. Only the campus
// workload is supported: the arena's claim is "same workload, different
// strategies", and the campus scenario is the calibrated one.
func runArena(sc scenario, seed int64, parallel int, out, statsOut io.Writer) error {
	if sc.topo != "campus" || sc.topoJSON != nil {
		return fmt.Errorf("-arena runs the campus workload; drop -topology/-topology-file")
	}
	cfg := armnet.ArenaConfig{CampusConfig: sc.campusConfig(seed)}
	entries, st, err := armnet.RunArenaSweep(context.Background(), cfg, parallel)
	if err != nil {
		return err
	}
	if _, err := out.Write(armnet.RenderArena(cfg, entries)); err != nil {
		return err
	}
	fmt.Fprintf(statsOut, "armsim: %s\n", st)
	return nil
}

// writeObs merges the per-replication snapshots in replication order —
// deterministic regardless of -parallel — and writes the requested
// exports.
func writeObs(sc scenario, reps []replication, stdout io.Writer) error {
	snaps := make([]*armnet.ObsSnapshot, len(reps))
	for i, rep := range reps {
		snaps[i] = rep.snap
	}
	merged, err := armnet.MergeObsSnapshots(snaps)
	if err != nil {
		return err
	}
	if merged == nil {
		return fmt.Errorf("observability armed but no snapshot was produced")
	}
	if sc.obsSnapshotPath != "" {
		if err := writeFileOrStdout(sc.obsSnapshotPath, merged.Prometheus(), stdout); err != nil {
			return err
		}
	}
	if sc.obsJSONPath != "" {
		if err := writeFileOrStdout(sc.obsJSONPath, merged.JSON(), stdout); err != nil {
			return err
		}
	}
	if sc.spansPath != "" {
		var joined bytes.Buffer
		for _, rep := range reps {
			joined.Write(rep.spans)
		}
		if err := writeFileOrStdout(sc.spansPath, joined.Bytes(), stdout); err != nil {
			return err
		}
	}
	if sc.summary {
		printSummary(stdout, merged)
	}
	return nil
}

func writeFileOrStdout(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary renders the paper-§7-style digest of the merged snapshot.
func printSummary(out io.Writer, snap *armnet.ObsSnapshot) {
	s := snap.Summary()
	fmt.Fprintf(out, "summary (over %d run(s)):\n", snap.Runs)
	tb := stats.Table{Header: []string{"result", "value"}}
	tb.AddRow("connection requests", fmt.Sprintf("%.0f", s.Requests))
	tb.AddRow("admitted", fmt.Sprintf("%.0f", s.Admitted))
	tb.AddRow("blocked", fmt.Sprintf("%.0f", s.Blocked))
	tb.AddRow("block rate", fmt.Sprintf("%.4f", s.BlockRate))
	tb.AddRow("handoffs attempted", fmt.Sprintf("%.0f", s.Handoffs))
	tb.AddRow("handoffs dropped", fmt.Sprintf("%.0f", s.Dropped))
	tb.AddRow("drop rate", fmt.Sprintf("%.4f", s.DropRate))
	tb.AddRow("bandwidth availability", fmt.Sprintf("%.4f", s.Availability))
	tb.AddRow("adaptations per conn", fmt.Sprintf("%.2f", s.MeanAdaptation))
	if s.SetupP50 > 0 || s.SetupP99 > 0 {
		tb.AddRow("setup latency p50/p99", fmt.Sprintf("%.1fms / %.1fms", s.SetupP50*1e3, s.SetupP99*1e3))
	}
	if s.InterruptP50 > 0 || s.InterruptP99 > 0 {
		tb.AddRow("handoff interruption p50/p99", fmt.Sprintf("%.1fms / %.1fms", s.InterruptP50*1e3, s.InterruptP99*1e3))
	}
	fmt.Fprint(out, tb.String())
}

// writeTrace concatenates the per-replication JSONL event traces in
// replication order — deterministic regardless of -parallel — to the
// given path ("-" selects stdout).
func writeTrace(path string, reps []replication, stdout io.Writer) error {
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	for _, rep := range reps {
		if _, err := w.Write(rep.trace); err != nil {
			return err
		}
	}
	return nil
}

// printDetailed reports a single replication in full.
func printDetailed(out io.Writer, sc scenario, seed int64, mgr *core.Manager) {
	c := mgr.Met.Counter
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d\n",
		sc.topo, sc.portables, sc.duration, sc.mode, seed)
	tb := stats.Table{Header: []string{"metric", "value"}}
	for _, name := range c.Names() {
		tb.AddRow(name, c.Get(name))
	}
	fmt.Fprint(out, tb.String())
	if tried := c.Get(armnet.CtrHandoffTried); tried > 0 {
		fmt.Fprintf(out, "handoff drop rate: %.4f\n", c.Ratio(armnet.CtrHandoffDropped, armnet.CtrHandoffTried))
	}
	if mgr.Latency.Predicted.N()+mgr.Latency.Unpredicted.N() > 0 {
		fmt.Fprintf(out, "handoff latency: predicted %.1fms (n=%d), unpredicted %.1fms (n=%d)\n",
			mgr.Latency.Predicted.Mean()*1e3, mgr.Latency.Predicted.N(),
			mgr.Latency.Unpredicted.Mean()*1e3, mgr.Latency.Unpredicted.N())
	}
	if req := c.Get(armnet.CtrNewRequested); req > 0 {
		fmt.Fprintf(out, "new-connection block rate: %.4f\n", c.Ratio(armnet.CtrNewBlocked, armnet.CtrNewRequested))
	}
}
