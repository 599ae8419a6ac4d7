// Command paperfigs regenerates every table and figure of the paper's
// evaluation section and prints the same rows/series the paper reports.
//
// Usage:
//
//	paperfigs -exp all            # run everything
//	paperfigs -exp fig5 -seed 7   # one experiment, chosen seed
//	paperfigs -exp fig6 -horizon 400
//	paperfigs -exp theorem1 -parallel 8   # fan trials across 8 workers
//
// Experiments: table1, table2, fig2, fig4, fig5, fig6, theorem1, campus,
// tth, bounds, corridor, all.
//
// Multi-trial experiments (fig5, fig6, theorem1, campus, tth) fan their
// independent trials across -parallel workers. Replication is
// deterministic: the rows printed to stdout are byte-identical at any
// worker count, so figures can be regenerated at full speed and diffed
// against archived output. The worker-pool stats (wall time, speedup) go
// to stderr, keeping stdout clean for comparison. The campus
// experiment's event trace and instrument snapshot come from
// `armsim -seed 1 -duration 2400 -trace FILE -obs-snapshot FILE`, the
// same walk.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"armnet"
	"armnet/internal/profile"
	"armnet/internal/sched"
	"armnet/internal/stats"
)

// opts carries the flag values and output streams through the experiment
// runners. Deterministic experiment rows go to out; timing-dependent
// worker-pool stats go to statsOut so out stays byte-comparable.
type opts struct {
	seed     int64
	horizon  float64
	walkBys  int
	parallel int
	out      io.Writer
	statsOut io.Writer
}

// experimentOrder is the -exp all sequence.
var experimentOrder = []string{
	"table1", "table2", "fig2", "fig4", "fig5", "fig6",
	"theorem1", "campus", "tth", "bounds", "corridor",
}

// runners maps experiment names to their implementations.
var runners = map[string]func(opts) error{
	"table1":   table1,
	"table2":   table2,
	"fig2":     fig2,
	"fig4":     fig4,
	"fig5":     fig5,
	"fig6":     fig6,
	"theorem1": theorem1,
	"campus":   campus,
	"tth":      tth,
	"bounds":   bounds,
	"corridor": corridor,
}

func main() {
	names, o, err := parseArgs(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2) // parseArgs has reported it
	}
	o.out, o.statsOut = os.Stdout, os.Stderr
	if err := runExperiments(names, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseArgs reads a paperfigs command line, without the program name,
// into the experiments it names and the options they run with, and
// reports a refusal to stderr. It refuses what no experiment can run
// with, naming the flag, rather than letting a default stand in for it.
func parseArgs(args []string, stderr io.Writer) ([]string, opts, error) {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experimentOrder, ", ")+", all")
	seed := fs.Int64("seed", 1, "random seed")
	horizon := fs.Float64("horizon", 200, "figure-6 simulation horizon (seconds)")
	walkBys := fs.Int("walkbys", 400, "figure-5 corridor through-traffic volume")
	parallel := fs.Int("parallel", 1, "worker count for multi-trial experiments (fig5, fig6, theorem1, campus, tth; 0 = GOMAXPROCS); output is identical at any worker count")
	if err := fs.Parse(args); err != nil {
		return nil, opts{}, err // fs has reported it, with the usage
	}
	var names []string
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *walkBys < 0:
		err = fmt.Errorf("-walkbys %d: want a non-negative number of corridor transits", *walkBys)
	case !(*horizon > 0) || math.IsInf(*horizon, 1):
		err = fmt.Errorf("-horizon %v: want a positive, finite number of seconds", *horizon)
	case *parallel < 0:
		err = fmt.Errorf("-parallel %d: want a non-negative worker count (0 = GOMAXPROCS)", *parallel)
	default:
		names, err = resolveExperiments(*exp)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, opts{}, err
	}
	return names, opts{seed: *seed, horizon: *horizon, walkBys: *walkBys, parallel: *parallel}, nil
}

// resolveExperiments expands the -exp flag into the list of runner names.
func resolveExperiments(exp string) ([]string, error) {
	if exp == "all" {
		return experimentOrder, nil
	}
	var names []string
	for _, name := range strings.Split(exp, ",") {
		if _, ok := runners[name]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %s, all)", name, strings.Join(experimentOrder, ", "))
		}
		names = append(names, name)
	}
	return names, nil
}

// runExperiments executes the named experiments against o in order.
func runExperiments(names []string, o opts) error {
	for _, name := range names {
		fmt.Fprintf(o.out, "==== %s ====\n", name)
		if err := runners[name](o); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(o.out)
	}
	return nil
}

// table1 builds live profiles on the campus and prints their contents per
// cell class — the structure of the paper's Table 1.
func table1(o opts) error {
	env, err := armnet.BuildFigure4("faculty", []string{"stu-a", "stu-b", "stu-c"})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, "cell profiles (type, handoff activity, contents):")
	tb := stats.Table{Header: []string{"cell", "class", "omega(c)", "eta(c)"}}
	for _, c := range env.Universe.Cells() {
		occ := strings.Join(c.Occupants, ",")
		if occ == "" {
			occ = "-"
		}
		nbs := make([]string, 0)
		for _, n := range c.Neighbors() {
			nbs = append(nbs, string(n))
		}
		tb.AddRow(string(c.ID), c.Class.String(), occ, strings.Join(nbs, ","))
	}
	fmt.Fprint(o.out, tb.String())
	// Portable-profile triplet demonstration.
	pp := profile.NewPortableProfile(100)
	pp.Record(profile.Handoff{Prev: "C", From: "D", To: "A"})
	next, ok := pp.Predict("C", "D")
	fmt.Fprintf(o.out, "portable profile triplet: <prev=C, cur=D> -> next-prd-cell=%s (ok=%v)\n", next, ok)
	return nil
}

func table2(o opts) error {
	for _, d := range []sched.Discipline{sched.DisciplineWFQ, sched.DisciplineRCSP} {
		r, err := armnet.RunTable2(armnet.Table2Config{Discipline: d})
		if err != nil {
			return err
		}
		fmt.Fprint(o.out, r.String())
	}
	return nil
}

func fig2(o opts) error {
	r, err := armnet.RunFigure2(o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, "handoff activity in a lounge (meeting room), per 5-minute slot:")
	fmt.Fprint(o.out, r.String())
	return nil
}

func fig4(o opts) error {
	r, err := armnet.RunFigure4(armnet.Figure4Config{Seed: o.seed})
	if err != nil {
		return err
	}
	fmt.Fprint(o.out, r.String())
	return nil
}

func fig5(o opts) error {
	rs, st, err := armnet.RunFigure5Comparison(context.Background(), o.seed, o.walkBys, o.parallel)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.statsOut, "fig5: %s\n", st)
	tb := stats.Table{Header: []string{"students", "offered-load", "algorithm", "drops", "handoffs"}}
	for _, r := range rs {
		tb.AddRow(r.Students, fmt.Sprintf("%.0f%%", r.OfferedLoad*100), r.Algorithm.String(), r.Drops, r.HandoffAttempts)
	}
	fmt.Fprintln(o.out, "paper: 35 students @59% -> brute-force 2, aggregation 0, meeting-room 0 drops")
	fmt.Fprintln(o.out, "       55 students @94% -> brute-force 7, aggregation 4, meeting-room 0 drops")
	fmt.Fprint(o.out, tb.String())
	// Figure 5(a): handoffs into the classroom around the start.
	last := rs[len(rs)-1]
	fmt.Fprintln(o.out, "fig 5(a): handoffs into the classroom per minute (55-student run):")
	printSpark(o.out, last.IntoRoom, 50, 75)
	fmt.Fprintln(o.out, "fig 5(c): handoffs out of the classroom per minute:")
	printSpark(o.out, last.OutOfRoom, 100, 125)
	return nil
}

func printSpark(w io.Writer, series []int, lo, hi int) {
	if hi > len(series) {
		hi = len(series)
	}
	if lo < 0 || lo >= hi {
		lo = 0
	}
	for i := lo; i < hi; i++ {
		fmt.Fprintf(w, "  min %3d |%s %d\n", i, strings.Repeat("#", series[i]), series[i])
	}
}

func fig6(o opts) error {
	curves, st, err := armnet.RunFigure6Sweep(context.Background(), o.seed, nil, nil, o.horizon, o.parallel)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.statsOut, "fig6: %s\n", st)
	fmt.Fprintln(o.out, "P_d vs P_b family over the window T (paper: curves for small T dominate;")
	fmt.Fprintln(o.out, "all curves coincide at large P_d):")
	for _, c := range curves {
		fmt.Fprintf(o.out, "T = %v\n", c.T)
		tb := stats.Table{Header: []string{"P_QOS", "P_d", "P_b", "mean-reserved"}}
		for _, p := range c.Points {
			tb.AddRow(p.PQoS, p.Pd, p.Pb, p.MeanReserved)
		}
		fmt.Fprint(o.out, tb.String())
	}
	return nil
}

// campusCfg is the campus experiment's configuration at a given seed
// (mode left zero = predictive; the comparison runner overrides it).
func campusCfg(seed int64) armnet.CampusConfig {
	return armnet.CampusConfig{Config: armnet.Config{Seed: seed}, Portables: 24, Duration: 2400}
}

// campus is the extension experiment: the integrated manager under the
// three reservation modes on random-walk mobility, one worker per mode.
func campus(o opts) error {
	rs, st, err := armnet.RunCampusComparison(context.Background(), campusCfg(o.seed), o.parallel)
	if err != nil {
		return err
	}
	tb := stats.Table{Header: []string{"mode", "drop-rate", "block-rate", "reservations", "pool-claims", "pred-share", "lat-pred(ms)", "lat-unpred(ms)"}}
	for _, r := range rs {
		tb.AddRow(r.Mode.String(), r.DropRate, r.BlockRate, r.AdvanceReservations, r.PoolClaims,
			r.PredictedShare, r.PredictedLatency*1e3, r.UnpredictedLatency*1e3)
	}
	fmt.Fprint(o.out, tb.String())
	fmt.Fprintf(o.statsOut, "campus: %s\n", st)
	return nil
}

// tth sweeps the static/mobile threshold T_th (DESIGN.md's ablation), one
// worker per threshold point.
func tth(o opts) error {
	points, st, err := armnet.RunTthSensitivity(context.Background(), campusCfg(o.seed), nil, o.parallel)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, "T_th sensitivity (small T_th flips portables static early):")
	tb := stats.Table{Header: []string{"T_th(s)", "drop-rate", "block-rate", "reservations", "pool-claims", "pred-share"}}
	for _, p := range points {
		tb.AddRow(p.Tth, p.DropRate, p.BlockRate, p.AdvanceReservations, p.PoolClaims, p.PredictedShare)
	}
	fmt.Fprint(o.out, tb.String())
	fmt.Fprintf(o.statsOut, "tth: %s\n", st)
	return nil
}

// bounds is the extension experiment quantifying §2.1: loose QoS bounds
// vs rigid reservations on a fading wireless link.
func bounds(o opts) error {
	loose, rigid, err := armnet.RunBounds(o.seed)
	if err != nil {
		return err
	}
	tb := stats.Table{Header: []string{"scenario", "admitted", "overcommit-time", "mean-utilization"}}
	tb.AddRow("loose [b_min,b_max]", loose.Admitted, loose.OvercommitFraction, loose.MeanUtilization)
	tb.AddRow("rigid (midpoint)", rigid.Admitted, rigid.OvercommitFraction, rigid.MeanUtilization)
	fmt.Fprint(o.out, tb.String())
	return nil
}

// corridor validates §6.1's linear-movement claim.
func corridor(o opts) error {
	r, err := armnet.RunCorridor(o.seed, 6, 200)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "corridor linear prediction: %d transits, accuracy %.3f\n", r.Transits, r.Accuracy())
	return nil
}

func theorem1(o opts) error {
	for _, refined := range []bool{false, true} {
		r, st, err := armnet.RunTheorem1(context.Background(), armnet.Theorem1Config{
			Seed: o.seed, Instances: 20, Refined: refined, Perturb: true,
		}, o.parallel)
		if err != nil {
			return err
		}
		fmt.Fprintln(o.out, r.String())
		fmt.Fprintf(o.statsOut, "theorem1 refined=%v: %s\n", refined, st)
	}
	return nil
}
