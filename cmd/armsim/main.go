// Command armsim runs an integrated resource-management scenario: a
// population of portables random-walks over a chosen topology while each
// holds a QoS-bounded connection; the full control loop (admission,
// prediction, advance reservation, adaptation, handoff) runs on the
// discrete-event simulator and the final metrics are printed. The scenario
// is the walk every campus experiment runs (armnet.RunWalk): at equal
// seed and workload flags, -trace writes the event stream of the
// campus experiment's predictive-mode run (`paperfigs -exp campus`).
//
// Usage:
//
//	armsim -topology campus -portables 24 -duration 3600 -mode predictive
//	armsim -topology figure4 -mode brute-force -seed 7
//	armsim -topology campus -replications 16 -parallel 8
//
// With -replications R the scenario runs R times under decorrelated seeds
// derived from -seed (replication i runs runner.SplitSeed(seed, i), so
// replication 0 keeps it), fanned across -parallel workers. Replication
// is deterministic: the per-replication table is identical at any worker
// count; pool stats (wall time, speedup) print to stderr.
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
// admission). -arena instead runs every allocator/admitter pair
// head-to-head over the *identical* campus workload, one pair per trial
// across -parallel workers, printing a comparative table (utilization,
// drops, blocking, control overhead); it refuses the flags that would
// configure or export a single run (faults, overload, signaling,
// strategies, replay, replications, traces and observability):
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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
	sc, err := parseArgs(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2) // parseArgs has reported it
	}
	if err := run(sc, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "armsim:", err)
		os.Exit(1)
	}
}

// parseArgs reads an armsim command line, without the program name, into
// a scenario and reports a bad flag or a stray argument to stderr. The
// walk's and the manager's settings go straight into its CampusConfig;
// the rest say where the scenario comes from and what to export.
func parseArgs(args []string, stderr io.Writer) (scenario, error) {
	fs := flag.NewFlagSet("armsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sc scenario
	c := &sc.cfg
	fs.StringVar(&sc.topo, "topology", "campus", "topology: campus, figure4, meetingwing, corridor")
	fs.IntVar(&c.Portables, "portables", 24, "number of portables")
	fs.Float64Var(&c.Duration, "duration", 3600, "simulated seconds")
	fs.Float64Var(&c.Dwell, "dwell", 180, "mean cell dwell time (s)")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	fs.Func("mode", "reservation mode: predictive (default), brute-force, none", func(name string) error {
		for _, m := range []armnet.ReservationMode{armnet.ModePredictive, armnet.ModeBruteForce, armnet.ModeNone} {
			if m.String() == name {
				c.Mode = m
				return nil
			}
		}
		return fmt.Errorf("unknown mode %q", name)
	})
	fs.StringVar(&c.Allocator, "allocator", "", "rate-allocation strategy (default maxmin, the paper's protocol); see armnet.Allocators")
	fs.StringVar(&c.Admitter, "admitter", "", "admission-control strategy (default table2, the paper's tests); see armnet.Admitters")
	fs.BoolVar(&sc.arena, "arena", false, "run every allocator/admitter pair head-to-head over the identical campus workload and print the comparative table")
	fs.StringVar(&sc.topoFile, "topology-file", "", "build the environment from a JSON spec instead of a named topology")
	fs.Float64Var(&c.BMin, "bmin", 32e3, "connection b_min (bits/s)")
	fs.Float64Var(&c.BMax, "bmax", 128e3, "connection b_max (bits/s)")
	fs.StringVar(&sc.mobilityPath, "mobility-trace", "", "replay a CSV mobility trace (see cmd/tracegen) instead of generating one")
	fs.StringVar(&sc.tracePath, "trace", "", "write the control-plane event stream as JSON Lines to this file (- for stdout)")
	fs.StringVar(&sc.faultPath, "fault-plan", "", "inject faults from this plan file (drop/dup/delay rules and timed outages); connections then open through the signaling plane")
	fs.StringVar(&sc.overloadPath, "overload-policy", "", "arm staged overload control from this policy file (see internal/overload for the grammar); 'default' uses the built-in policy")
	fs.Float64Var(&c.Signal.Timeout, "signal-timeout", 0, "signaling setup deadline in seconds (0 = scale with route hop count)")
	fs.IntVar(&c.Signal.MaxRetries, "signal-retries", 0, "per-hop control-message retransmission budget (0 = default)")
	fs.IntVar(&sc.replications, "replications", 1, "independent scenario replications under derived seeds")
	fs.IntVar(&sc.parallel, "parallel", 1, "worker count for replications and -arena pairs (0 = GOMAXPROCS); output is identical at any worker count")
	fs.StringVar(&sc.obsSnapshotPath, "obs-snapshot", "", "write the merged instrument snapshot as Prometheus text to this file (- for stdout)")
	fs.StringVar(&sc.obsJSONPath, "obs-json", "", "write the merged instrument snapshot as JSON to this file (- for stdout)")
	fs.StringVar(&sc.spansPath, "spans", "", "write the JSONL connection-lifecycle spans to this file (- for stdout); replications append in order")
	fs.BoolVar(&sc.summary, "summary", false, "print the paper-§7-style results summary derived from the merged snapshot")
	fs.StringVar(&sc.telemetryAddr, "telemetry-addr", "", "serve live wall-clock telemetry on this address (/metrics, /healthz, /spans, /debug/pprof)")
	fs.Float64Var(&sc.telemetryLinger, "telemetry-linger", 0, "keep the telemetry endpoint up this many wall-clock seconds after the run finishes")
	if err := fs.Parse(args); err != nil {
		return sc, err // fs has reported it, with the usage
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(stderr, err)
		return sc, err
	}
	return sc, nil
}

// scenario describes one armsim configuration. It carries only immutable
// inputs; every replication builds its own environment, network, trace
// and observer so that concurrent trials share no mutable state.
type scenario struct {
	// cfg is the walk every replication runs. Each replication sets its
	// own Seed, derived from this one, and its own Obs.
	cfg            armnet.CampusConfig
	topo, topoFile string
	topoJSON       []byte // parsed per replication (envs are mutable)
	arena          bool
	mobilityPath   string
	trace          *mobility.Trace // replayed read-only when set
	tracePath      string          // JSONL event-trace destination ("" = off)
	faultPath      string          // parsed once into cfg.Faults; injectors only read it
	overloadPath   string          // parsed once into cfg.Overload; controllers copy it
	replications   int
	parallel       int

	// Observability outputs. Any of them arms the observer; an armed
	// layer changes nothing about the simulation (the event trace stays
	// byte-identical), it only adds exports.
	obsSnapshotPath string
	obsJSONPath     string
	spansPath       string
	summary         bool
	telemetryAddr   string
	telemetryLinger float64
}

// observed reports whether any export reads the observability layer.
func (sc *scenario) observed() bool {
	return sc.obsSnapshotPath != "" || sc.obsJSONPath != "" ||
		sc.spansPath != "" || sc.summary || sc.telemetryAddr != ""
}

// prepare loads the optional topology spec, fault plan, overload policy
// and replay trace once, and validates the inputs shared by every
// replication.
func (sc *scenario) prepare() error {
	c := &sc.cfg
	// A replayed trace runs the simulator to the horizon, which an
	// infinite one never reaches.
	if math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
		return fmt.Errorf("-duration %v is not a finite number of seconds", c.Duration)
	}
	// Bounds no request can pass would refuse every connection of the
	// run; refuse the flags instead.
	for _, b := range []struct {
		name string
		v    float64
	}{{"-bmin", c.BMin}, {"-bmax", c.BMax}} {
		if math.IsNaN(b.v) || math.IsInf(b.v, 0) || b.v <= 0 {
			return fmt.Errorf("%s %v is not a positive finite bandwidth", b.name, b.v)
		}
	}
	if c.BMin > c.BMax {
		return fmt.Errorf("-bmin %v exceeds -bmax %v", c.BMin, c.BMax)
	}
	if c.Portables < 0 {
		return fmt.Errorf("-portables %d: want a non-negative number of portables", c.Portables)
	}
	// Zero picks the signaling defaults; a value outside the domain would
	// silently do the same (a bad timeout) or disable retransmission (a
	// negative budget).
	if t := c.Signal.Timeout; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return fmt.Errorf("-signal-timeout %v: want a non-negative, finite number of seconds", t)
	}
	if c.Signal.MaxRetries < 0 {
		return fmt.Errorf("-signal-retries %d: want a non-negative retransmission budget", c.Signal.MaxRetries)
	}
	if sc.replications < 1 {
		return fmt.Errorf("-replications %d: want at least one replication", sc.replications)
	}
	if sc.parallel < 0 {
		return fmt.Errorf("-parallel %d: want a non-negative worker count (0 = GOMAXPROCS)", sc.parallel)
	}
	// The linger keeps the telemetry endpoint up; with none to keep up it
	// would be ignored, and a bad value would sleep forever or not at all.
	if math.IsNaN(sc.telemetryLinger) || math.IsInf(sc.telemetryLinger, 0) || sc.telemetryLinger < 0 {
		return fmt.Errorf("-telemetry-linger %v: want a non-negative, finite number of seconds", sc.telemetryLinger)
	}
	if sc.telemetryLinger > 0 && sc.telemetryAddr == "" {
		return fmt.Errorf("-telemetry-linger %v: lingers the telemetry endpoint; set -telemetry-addr", sc.telemetryLinger)
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
		c.Faults, err = armnet.ParseFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if sc.overloadPath != "" {
		if sc.overloadPath == "default" {
			def := armnet.DefaultOverloadPolicy()
			c.Overload = &def
		} else {
			f, err := os.Open(sc.overloadPath)
			if err != nil {
				return err
			}
			c.Overload, err = armnet.ParseOverloadPolicy(f)
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
		if d := sc.trace.Duration(); d > c.Duration {
			c.Duration = d
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

// runOnce executes one self-contained replication under the given seed:
// the walk every campus experiment runs (armnet.RunWalk), on this
// scenario's environment, replaying the recorded mobility trace when one
// was given.
func (sc scenario) runOnce(seed int64) (replication, error) {
	env, err := sc.buildEnv()
	if err != nil {
		return replication{}, err
	}
	cfg := sc.cfg
	cfg.Seed = seed
	var spanBuf, traceBuf bytes.Buffer
	if sc.observed() {
		cfg.Obs = &armnet.ObsOptions{}
		if sc.spansPath != "" || sc.telemetryAddr != "" {
			cfg.Obs.Spans = &spanBuf
		}
	}
	var traceW io.Writer
	if sc.tracePath != "" {
		traceW = &traceBuf
	}
	mgr, err := armnet.RunWalk(env, cfg, sc.trace, traceW)
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
func run(sc scenario, out, statsOut io.Writer) error {
	if err := sc.prepare(); err != nil {
		return err
	}
	if sc.arena {
		return runArena(sc, out, statsOut)
	}
	seed, replications := sc.cfg.Seed, sc.replications
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
	reps, st, err := runner.Map(ctx, sc.parallel, replications,
		func(_ context.Context, i int) (replication, error) {
			rep, err := sc.runOnce(runner.SplitSeed(seed, i))
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
	if sc.observed() {
		if err := writeObs(sc, reps, out); err != nil {
			return err
		}
	}
	if replications == 1 {
		printDetailed(out, sc, reps[0].mgr)
		return nil
	}
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d replications=%d\n",
		sc.topo, sc.cfg.Portables, sc.cfg.Duration, sc.cfg.Mode, seed, replications)
	tb := stats.Table{Header: []string{"seed", "handoffs", "drop-rate", "block-rate", "reservations", "pool-claims"}}
	var dropSum, blockSum float64
	for i, rep := range reps {
		c := rep.mgr.Met.Counter
		drop := c.Ratio(armnet.CtrHandoffDropped, armnet.CtrHandoffTried)
		block := c.Ratio(armnet.CtrNewBlocked, armnet.CtrNewRequested)
		dropSum += drop
		blockSum += block
		tb.AddRow(runner.SplitSeed(seed, i), c.Get(armnet.CtrHandoffTried), drop, block,
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
// strategies", and the campus scenario is the calibrated one. The roster
// runs the plain walk and prints only its table, so a flag that would
// configure or export a single run is refused by name rather than
// ignored.
func runArena(sc scenario, out, statsOut io.Writer) error {
	if sc.topo != "campus" || sc.topoJSON != nil {
		return fmt.Errorf("-arena runs the campus workload; drop -topology/-topology-file")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-fault-plan", sc.faultPath != ""},
		{"-overload-policy", sc.overloadPath != ""},
		{"-signal-timeout", sc.cfg.Signal.Timeout != 0},
		{"-signal-retries", sc.cfg.Signal.MaxRetries != 0},
		{"-allocator", sc.cfg.Allocator != ""},
		{"-admitter", sc.cfg.Admitter != ""},
		{"-mobility-trace", sc.mobilityPath != ""},
		{"-replications", sc.replications != 1},
		{"-trace", sc.tracePath != ""},
		{"-obs-snapshot", sc.obsSnapshotPath != ""},
		{"-obs-json", sc.obsJSONPath != ""},
		{"-spans", sc.spansPath != ""},
		{"-summary", sc.summary},
		{"-telemetry-addr", sc.telemetryAddr != ""},
	} {
		if f.set {
			return fmt.Errorf("-arena runs its roster on the plain campus walk; drop %s", f.name)
		}
	}
	cfg := armnet.ArenaConfig{CampusConfig: sc.cfg}
	entries, st, err := armnet.RunArena(context.Background(), cfg, sc.parallel)
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
func printDetailed(out io.Writer, sc scenario, mgr *core.Manager) {
	c := mgr.Met.Counter
	fmt.Fprintf(out, "topology=%s portables=%d duration=%.0fs mode=%s seed=%d\n",
		sc.topo, sc.cfg.Portables, sc.cfg.Duration, sc.cfg.Mode, sc.cfg.Seed)
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
