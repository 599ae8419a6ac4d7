package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: armnet/internal/des
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleAndFire 	  100000	       102.7 ns/op	      48 B/op	       1 allocs/op
BenchmarkHeapChurn-8     	  100000	       342.5 ns/op	      48 B/op	       1 allocs/op
BenchmarkFigure2LoungeActivity-4   	     100	  12345 ns/op	        12.00 peak-handoffs/slot	      24 B/op	       2 allocs/op
PASS
ok  	armnet/internal/des	0.062s
`

func TestParseSampleOutput(t *testing.T) {
	p, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if p.Pkg != "armnet/internal/des" {
		t.Errorf("pkg = %q", p.Pkg)
	}
	if !strings.Contains(p.CPU, "Xeon") {
		t.Errorf("cpu = %q", p.CPU)
	}
	want := []result{
		{Name: "BenchmarkScheduleAndFire", Iters: 100000, NsPerOp: 102.7, BytesPerOp: 48, AllocsPerOp: 1},
		{Name: "BenchmarkHeapChurn", Procs: 8, Iters: 100000, NsPerOp: 342.5, BytesPerOp: 48, AllocsPerOp: 1},
		{Name: "BenchmarkFigure2LoungeActivity", Procs: 4, Iters: 100, NsPerOp: 12345,
			BytesPerOp: 24, AllocsPerOp: 2, Metrics: map[string]float64{"peak-handoffs/slot": 12}},
	}
	if !reflect.DeepEqual(p.Results, want) {
		t.Errorf("results mismatch:\n got %+v\nwant %+v", p.Results, want)
	}
}

func TestParseCustomMetricsOnly(t *testing.T) {
	out := "BenchmarkTheorem1Convergence-2   	      50	  98765.4 ns/op	        33.60 messages/instance\nPASS\n"
	p, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := p.Results[0]
	if r.Metrics["messages/instance"] != 33.6 || r.NsPerOp != 98765.4 {
		t.Errorf("bad parse: %+v", r)
	}
}

func TestParseFailedBuild(t *testing.T) {
	out := `# armnet/internal/des [armnet/internal/des.test]
internal/des/des.go:10:2: undefined: frobnicate
FAIL	armnet/internal/des [build failed]
FAIL
`
	if _, err := parse(strings.NewReader(out)); err == nil {
		t.Fatal("want error on build failure")
	} else if !strings.Contains(err.Error(), "build failed") {
		t.Errorf("error should quote the FAIL line: %v", err)
	}
}

func TestParseFailedBenchmark(t *testing.T) {
	out := `BenchmarkTable2AdmissionWFQ 	  100	  5000 ns/op
--- FAIL: BenchmarkTable2AdmissionRCSP
    bench_test.go:30: admission failed
FAIL
exit status 1
FAIL	armnet	0.5s
`
	if _, err := parse(strings.NewReader(out)); err == nil {
		t.Fatal("want error when a benchmark failed mid-run")
	}
}

func TestParseEmptyOutput(t *testing.T) {
	out := "goos: linux\nPASS\nok  	armnet	0.001s\n"
	if _, err := parse(strings.NewReader(out)); err == nil {
		t.Fatal("want error when no benchmark matched")
	}
}

func TestMergeResultsWeightedMeanAndIdempotence(t *testing.T) {
	in := []result{
		{Name: "BenchmarkX", Iters: 100, NsPerOp: 100, AllocsPerOp: 2, Metrics: map[string]float64{"events/s": 10}},
		{Name: "BenchmarkY", Iters: 10, NsPerOp: 7},
		{Name: "BenchmarkX", Iters: 300, NsPerOp: 200, AllocsPerOp: 2, Metrics: map[string]float64{"events/s": 30}},
	}
	got := mergeResults(in)
	if len(got) != 2 {
		t.Fatalf("want 2 merged results, got %d", len(got))
	}
	x := got[0]
	if x.Name != "BenchmarkX" || x.Iters != 400 {
		t.Errorf("bad merged identity: %+v", x)
	}
	if math.Abs(x.NsPerOp-175) > 1e-9 { // (100*100 + 200*300) / 400
		t.Errorf("ns/op weighted mean = %v, want 175", x.NsPerOp)
	}
	if math.Abs(x.Metrics["events/s"]-25) > 1e-9 {
		t.Errorf("metric weighted mean = %v, want 25", x.Metrics["events/s"])
	}
	again := mergeResults(got)
	if !reflect.DeepEqual(again, got) {
		t.Errorf("merge not idempotent:\n got %+v\nthen %+v", got, again)
	}
	// Merging must not mutate its input's metric maps.
	if in[0].Metrics["events/s"] != 10 {
		t.Errorf("input mutated: %+v", in[0])
	}
}

func TestTrajectoryAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_des.json")
	first, err := loadTrajectory(path, "des")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Entries) != 0 || first.Area != "des" {
		t.Fatalf("fresh trajectory wrong: %+v", first)
	}
	first.Append(entry{CapturedAt: "2026-08-08T00:00:00Z", Note: "baseline",
		Results: []result{{Name: "BenchmarkScheduleAndFire", Iters: 1000, NsPerOp: 100, AllocsPerOp: 1}}})
	if err := first.Save(path); err != nil {
		t.Fatal(err)
	}

	second, err := loadTrajectory(path, "des")
	if err != nil {
		t.Fatal(err)
	}
	second.Append(entry{CapturedAt: "2026-08-08T01:00:00Z", Note: "post-opt",
		Results: []result{{Name: "BenchmarkScheduleAndFire", Iters: 1000, NsPerOp: 80}}})
	if err := second.Save(path); err != nil {
		t.Fatal(err)
	}

	final, err := loadTrajectory(path, "des")
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Entries) != 2 {
		t.Fatalf("append must accumulate, got %d entries", len(final.Entries))
	}
	if final.Entries[0].Note != "baseline" || final.Entries[1].Note != "post-opt" {
		t.Errorf("entry order lost: %+v", final.Entries)
	}
	if final.Last().Results[0].NsPerOp != 80 {
		t.Errorf("last entry wrong: %+v", final.Last())
	}
}

func TestLoadAreaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_des.json")
	tr := &trajectory{Area: "des"}
	tr.Append(entry{CapturedAt: "2026-08-08T00:00:00Z"})
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrajectory(path, "maxmin"); err == nil {
		t.Fatal("want error appending area maxmin onto a des file")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	prev := []result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 4},
		{Name: "BenchmarkB", NsPerOp: 100},
		{Name: "BenchmarkC", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "BenchmarkGone", NsPerOp: 1},
	}
	cur := []result{
		{Name: "BenchmarkA", NsPerOp: 130, AllocsPerOp: 4}, // 30% slower
		{Name: "BenchmarkB", NsPerOp: 75},                  // 25% faster
		{Name: "BenchmarkC", NsPerOp: 101, AllocsPerOp: 0}, // allocs eliminated
		{Name: "BenchmarkNew", NsPerOp: 1},
	}
	ds := compare(prev, cur)
	byKey := map[string]delta{}
	for _, d := range ds {
		byKey[d.Name+" "+d.Metric] = d
	}
	for key, change := range map[string]float64{
		"BenchmarkA ns/op":     0.30,
		"BenchmarkA allocs/op": 0,
		"BenchmarkB ns/op":     -0.25,
		"BenchmarkC ns/op":     0.01,
		"BenchmarkC allocs/op": -1,
	} {
		d, ok := byKey[key]
		if !ok {
			t.Errorf("missing delta %q", key)
			continue
		}
		if math.Abs(d.Change-change) > 1e-12 {
			t.Errorf("%s: change %v, want %v", key, d.Change, change)
		}
	}
	if len(ds) != 5 {
		t.Errorf("want 5 deltas, got %d", len(ds))
	}
	if _, ok := byKey["BenchmarkGone ns/op"]; ok {
		t.Error("vanished benchmark must not be compared")
	}
	if _, ok := byKey["BenchmarkNew ns/op"]; ok {
		t.Error("new benchmark has no baseline to compare")
	}
	// Only the allocs/op change is marked; ns/op moves, however large,
	// carry no verdict.
	var marked []string
	for _, line := range strings.Split(report(ds), "\n") {
		if strings.Contains(line, "CHANGED") {
			marked = append(marked, line)
		}
	}
	if len(marked) != 1 || !strings.HasPrefix(marked[0], "BenchmarkC") || !strings.Contains(marked[0], "allocs/op") {
		t.Errorf("marked rows = %q, want only BenchmarkC allocs/op", marked)
	}
}

func TestReportEmpty(t *testing.T) {
	if rep := report(nil); !strings.Contains(rep, "no comparable") {
		t.Errorf("empty report = %q", rep)
	}
}

// TestAllocsMarkIgnoresTruncation pins the allocs/op mark: a one-count
// move of a large truncated mean is the same binary read twice and goes
// unmarked; a larger move, and any move to or from zero, is marked.
func TestAllocsMarkIgnoresTruncation(t *testing.T) {
	for _, tc := range []struct {
		before, after float64
		marked        bool
	}{
		{1540, 1541, false},
		{1541, 1540, false},
		{1540, 1543, true},
		{100, 101, false},
		{99, 100, true},
		{4, 5, true},
		{0, 1, true},
		{1, 0, true},
		{7, 7, false},
	} {
		ds := compare([]result{{Name: "BenchmarkX", AllocsPerOp: tc.before}}, []result{{Name: "BenchmarkX", AllocsPerOp: tc.after}})
		if got := strings.Contains(report(ds), "ALLOCS CHANGED"); got != tc.marked {
			t.Errorf("%v → %v allocs/op: marked %v, want %v", tc.before, tc.after, got, tc.marked)
		}
	}
}
