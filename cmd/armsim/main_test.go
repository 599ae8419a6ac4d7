package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"armnet"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// flagDefaults is the scenario `armsim` runs with no flags.
func flagDefaults() scenario {
	return scenario{
		topo: "campus", portables: 24, duration: 3600, dwell: 180,
		modeName: "predictive", bmin: 32e3, bmax: 128e3,
	}
}

// armsimOutput runs a scenario in-process exactly as main would and
// returns stdout followed by one digest line per file export (-trace,
// -spans, -obs-snapshot go to files in a scratch directory; they run to
// megabytes, so the fixture pins their length and SHA-256 instead of
// their bytes). Pool stats carry wall-clock timings and are discarded.
func armsimOutput(t *testing.T, sc scenario, seed int64, replications, parallel int) []byte {
	t.Helper()
	dir := t.TempDir()
	exports := []struct {
		name string
		path *string
	}{{"trace", &sc.tracePath}, {"spans", &sc.spansPath}, {"obs-snapshot", &sc.obsSnapshotPath}}
	for _, e := range exports {
		if *e.path != "" {
			*e.path = filepath.Join(dir, e.name)
		}
	}
	sc.obs = sc.obsSnapshotPath != "" || sc.spansPath != "" || sc.summary
	var out bytes.Buffer
	if err := run(sc, seed, replications, parallel, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		if *e.path == "" {
			continue
		}
		data, err := os.ReadFile(*e.path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "-- %s: %d bytes, %d lines, sha256 %x\n",
			e.name, len(data), bytes.Count(data, []byte("\n")), sha256.Sum256(data))
	}
	return out.Bytes()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArmsimGolden pins armsim's report — and, by digest, its event
// trace, span stream and instrument snapshot — over the flag sets that
// reach every branch of a replication: both report shapes, the signaled
// open rule under a fault plan, the overload subsystem, a non-campus
// topology, the observability exports, and a rival strategy pair. The
// fixtures were captured on the hand-written replication body armsim had
// before it became an instance of sim's walk.
func TestArmsimGolden(t *testing.T) {
	type cell struct {
		name                  string
		edit                  func(t *testing.T, sc *scenario)
		replications, workers int
	}
	cases := []cell{
		{name: "defaults600", edit: func(_ *testing.T, sc *scenario) { sc.duration = 600 }},
		{name: "replications3", replications: 3, workers: 2},
		{name: "faultplan", edit: func(t *testing.T, sc *scenario) {
			sc.faultPath = writeFile(t, "chaos.plan",
				"drop any 0.1\nat 120 cell-out off-2 for 60\nat 300 crash-signaling\n")
			sc.tracePath = "file"
		}},
		{name: "overload", edit: func(_ *testing.T, sc *scenario) {
			sc.overloadPath = "default"
			sc.portables, sc.bmin, sc.bmax, sc.duration = 40, 160e3, 320e3, 400
			sc.tracePath = "file"
		}},
		{name: "corridor", edit: func(_ *testing.T, sc *scenario) { sc.topo = "corridor" }},
		{name: "obs", edit: func(_ *testing.T, sc *scenario) {
			sc.summary = true
			sc.spansPath, sc.obsSnapshotPath = "file", "file"
		}},
		{name: "meetingwing-rivals", edit: func(_ *testing.T, sc *scenario) {
			sc.topo, sc.modeName = "meetingwing", "brute-force"
			sc.allocator, sc.admitter = "erica", "measured"
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc := flagDefaults()
			if c.edit != nil {
				c.edit(t, &sc)
			}
			reps, workers := c.replications, c.workers
			if reps == 0 {
				reps, workers = 1, 1
			}
			got := armsimOutput(t, sc, 1, reps, workers)
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/armsim -update` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("armsim output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestArmsimTraceEqualsCampusTrace holds armsim and the campus experiment
// to one stream: `armsim -seed 1 -duration 2400 -trace FILE` and
// `paperfigs -exp campus -seed 1 -trace FILE` (armnet.RunCampus of the
// same configuration with a trace writer) must write the same bytes.
func TestArmsimTraceEqualsCampusTrace(t *testing.T) {
	sc := flagDefaults()
	sc.duration = 2400
	sc.tracePath = filepath.Join(t.TempDir(), "trace")
	if err := run(sc, 1, 1, 1, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sc.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, _, err := armnet.RunCampus(armnet.CampusConfig{
		Seed: 1, Portables: 24, Duration: 2400, BMin: 32e3, BMax: 128e3,
	}, &want); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("campus trace is empty")
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("armsim -trace (%d bytes) differs from RunCampus's trace (%d bytes)", len(got), want.Len())
	}
}
