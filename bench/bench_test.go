package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"armnet/internal/testnet"
	"armnet/internal/topology"
)

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false}, // p90 is rank 90: nine beyond
		{100, 90, true},
		{999, 90, true}, // p99 is rank 990: nine beyond
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.P50 != 500 || s.P90 != 900 || s.TailP != 99 || s.TailValue != 990 || s.Max != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{Name: "root", Index: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Index: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{Name: "b", Index: 2, Parent: 0, StartNS: 20, EndNS: 50},  // overlaps a
		{Name: "c", Index: 3, Parent: 0, StartNS: 90, EndNS: 120}, // runs past the parent
		{Name: "leaf", Index: 4, Parent: 2, StartNS: 25, EndNS: 45},
	}
	want := []int64{50, 20, 10, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := totalsByName(spans)
	if tot["root"].Total != 100 || tot["root"].Self != 50 || tot["b"].Self != 10 {
		t.Errorf("totalsByName = %+v", tot)
	}
}

func TestTracerNestsAndNilIsOff(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "")) // must not panic
	tr := newTracer()
	a := tr.begin("a", "p00")
	b := tr.begin("b", "p00")
	tr.end(b)
	tr.end(a)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[a].Parent, tr.spans[b].Parent)
	}
	if tr.spans[b].StartNS < tr.spans[a].StartNS || tr.spans[b].EndNS > tr.spans[a].EndNS {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
}

func campus(t *testing.T) *topology.Environment {
	t.Helper()
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestLiveScriptPoolCap is the regression test for the generator trap
// found while sizing: without a cap on live connections a 600-step
// script accumulates ~157 of them and one loopback pass costs millions
// of frames.
func TestLiveScriptPoolCap(t *testing.T) {
	env := campus(t)
	for seed := int64(1); seed <= 20; seed++ {
		for _, shape := range []struct {
			steps   int
			spacing float64
		}{{loopbackSteps, loopbackSpacing}, {1750, udpSpacing}} {
			script := liveScript(env, seed, shape.steps, shape.spacing)
			if len(script) != shape.steps {
				t.Fatalf("seed %d: %d steps, want %d", seed, len(script), shape.steps)
			}
			if peak := peakLive(script); peak > livePool || peak < liveFloor {
				t.Errorf("seed %d: peak live %d outside [%d, %d]", seed, peak, liveFloor, livePool)
			}
		}
	}
}

func TestLiveScriptDeterministicAndSettled(t *testing.T) {
	env := campus(t)
	a := liveScript(env, 7, 1200, udpSpacing)
	if b := liveScript(env, 7, 1200, udpSpacing); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different scripts")
	}
	if c := liveScript(env, 8, 1200, udpSpacing); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same script")
	}
	// No handoff or close may touch a connection whose last session
	// started less than liveCooldown ago, and b_min must leave room for
	// the whole pool under the lowest capacity.
	last := map[string]float64{}
	ops := map[testnet.Op]int{}
	for _, st := range a {
		ops[st.Op]++
		switch st.Op {
		case testnet.OpHandoff, testnet.OpClose:
			if at, ok := last[st.Conn]; !ok {
				t.Fatalf("step at %g touches unknown %s", st.At, st.Conn)
			} else if st.At-at < liveCooldown-1e-9 {
				t.Errorf("%s touched %g s after its last session", st.Conn, st.At-at)
			}
		}
		switch st.Op {
		case testnet.OpSetup, testnet.OpHandoff:
			last[st.Conn] = st.At
			if st.Min < liveBMinLo || st.Min > liveBMinHi || st.Max != 4*st.Min {
				t.Errorf("%s bounds [%g, %g]", st.Conn, st.Min, st.Max)
			}
		case testnet.OpClose:
			delete(last, st.Conn)
		case testnet.OpCapacity:
			if st.Capacity < liveCapLo || st.Capacity > liveCapHi {
				t.Errorf("capacity %g", st.Capacity)
			}
		}
	}
	if livePool*liveBMinHi >= liveCapLo {
		t.Errorf("pool × b_min = %g can exceed the lowest capacity %g", livePool*liveBMinHi, liveCapLo)
	}
	for op := testnet.OpSetup; op <= testnet.OpCapacity; op++ {
		if ops[op] == 0 {
			t.Errorf("script has no op %d", op)
		}
	}
}

func TestSimScriptsDeterministic(t *testing.T) {
	env := campus(t)
	for _, w := range []*simSpec{&campusWalk, &officeChurn} {
		a, err := w.script(env, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.script(env, 3)
		c, _ := w.script(env, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different scripts", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same script", w.name)
		}
		for i := 1; i < len(a); i++ {
			if a[i].At < a[i-1].At {
				t.Fatalf("%s: op %d out of order", w.name, i)
			}
		}
	}
	ops, _ := officeScript(env, 1)
	placed := 0
	for _, op := range ops {
		switch op.Kind {
		case opPlace:
			placed++
		case opHandoff:
			t.Error("office-churn portables must never move")
		}
	}
	if placed != officePortables {
		t.Errorf("%d placements, want %d", placed, officePortables)
	}
}

// TestTraceParsersOnRealLoopbackRun parses the traces of a real loopback
// run of the canonical campus script.
func TestTraceParsersOnRealLoopbackRun(t *testing.T) {
	script := testnet.CampusScript()
	res, err := testnet.Run(testnet.Config{Mode: testnet.ModeLoopback, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := parseControllerTrace(res.ControllerTrace)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Lines != bytes.Count(res.ControllerTrace, []byte("\n")) {
		t.Errorf("parsed %d lines of %d", ts.Lines, bytes.Count(res.ControllerTrace, []byte("\n")))
	}
	if len(ts.Commits) != res.Commits || ts.ByType["signal-commit"] != res.Commits {
		t.Errorf("%d commit records, run reports %d", len(ts.Commits), res.Commits)
	}
	if ts.ByType["signal-abort"] == 0 || ts.ByType["adaptation-round"] == 0 {
		t.Errorf("counts by type = %v", ts.ByType)
	}
	if ts.Sessions == 0 || ts.Messages == 0 {
		t.Errorf("protocol totals = %d sessions, %d messages", ts.Sessions, ts.Messages)
	}
	setup, handoff, lag, err := stepLatencies(script, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Four of the five setups commit (greedy aborts) and both handoffs.
	if len(setup) != 4 || len(handoff) != 2 || len(lag) != 6 {
		t.Fatalf("setup %v handoff %v lag %v", setup, handoff, lag)
	}
	for _, ms := range append(setup, handoff...) {
		if math.Abs(ms-7.6) > 1e-6 {
			t.Errorf("modelled 4-hop latency = %g ms, want 7.6", ms)
		}
	}
	for _, ms := range lag {
		if math.Abs(ms) > 1e-6 {
			t.Errorf("sim-clock step started %g ms late", ms)
		}
	}

	fs, err := parseNodeTraces(res.NodeTraces)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Frames != res.FramesSent {
		t.Errorf("%d wire-delivery records, %d frames sent", fs.Frames, res.FramesSent)
	}
	if fs.ByKind["signal-commit"] != 4*res.Commits || fs.ByKind["advertise"] == 0 || fs.Bytes == 0 {
		t.Errorf("frames by kind = %v, %d bytes", fs.ByKind, fs.Bytes)
	}
}

func TestFinalProblemMatchesRun(t *testing.T) {
	env := campus(t)
	script := liveScript(env, 5, 80, loopbackSpacing)
	res, err := testnet.Run(testnet.Config{Mode: testnet.ModeLoopback, Script: script, Horizon: 80*loopbackSpacing + loopbackSettle, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 || res.Aborted > 0 || res.SkippedOps > 0 {
		t.Fatalf("violations %v, %d aborted, %d skipped", res.Violations, res.Aborted, res.SkippedOps)
	}
	p, err := finalProblem(env, script)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Conns) != len(res.Live) {
		t.Fatalf("%d connections reconstructed, %d live", len(p.Conns), len(res.Live))
	}
	gap, err := oracleGap(p, res.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if gap > gapTol {
		t.Errorf("reconstructed problem's oracle is %g from the run's rates", gap)
	}
}

func TestCollectInsistsOnTheDefinedSet(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	if _, err := collect(endToEnd, vals); err != nil {
		t.Errorf("complete set: %v", err)
	}
	vals["stray"] = 1
	if _, err := collect(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Errorf("extra metric: %v", err)
	}
	delete(vals, "stray")
	delete(vals, "setup_s")
	if _, err := collect(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing metric: %v", err)
	}
}

// TestManifestMatches keeps BENCHMARK.json at the repository root in
// step with the tables in metrics.go and workloads.go.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var man struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(man.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", man.Command, man.Paths)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why == "" || len(man.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: manifest %q (why: %d chars), benchmark %q", i, man.Workloads[i].Name, len(man.Workloads[i].Why), w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the benchmark", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest %+v, benchmark %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in manifest %v, benchmark %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(man.PerLayer), len(man.EndToEnd))
	}
}

// TestSmoke runs one short pass of every workload, timed and traced, with
// every correctness check on — the few-second gate that keeps the
// benchmark building and honest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binds UDP sockets and runs for a few wall-clock seconds")
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			if err := run([]string{"-smoke", "--workload", w.name, "--trace", traced, "--seed", "3"}, &out); err != nil {
				t.Fatalf("%s --trace %s: %v\n%s", w.name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := len(endToEnd)
			if traced == "1" {
				want = len(perLayer)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
				t.Errorf("%s --trace %s: correct %v, attempted %d, failed %d, %d metrics (want %d)",
					w.name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
			}
		}
	}
	if err := run([]string{"--workload", "nope"}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}
