package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"armnet"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// flagDefaults is the scenario `armsim` runs with no flags.
func flagDefaults() scenario {
	sc, err := parseArgs(nil, io.Discard)
	if err != nil {
		panic(err)
	}
	return sc
}

// TestArmsimFlagsParseIntoCampusConfig: every walk and manager flag lands
// in its field of the one CampusConfig a replication runs, and a mode
// outside the three is refused at parse time.
func TestArmsimFlagsParseIntoCampusConfig(t *testing.T) {
	sc, err := parseArgs([]string{
		"-seed", "7", "-mode", "none", "-portables", "3", "-duration", "60", "-dwell", "30",
		"-bmin", "1e3", "-bmax", "2e3", "-allocator", "erica", "-admitter", "measured",
		"-signal-timeout", "3", "-signal-retries", "5",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := armnet.CampusConfig{
		Config: armnet.Config{
			Seed: 7, Mode: armnet.ModeNone, Allocator: "erica", Admitter: "measured",
			Signal: armnet.SignalOptions{Timeout: 3, MaxRetries: 5},
		},
		Portables: 3, Duration: 60, Dwell: 30, BMin: 1e3, BMax: 2e3,
	}
	if !reflect.DeepEqual(sc.cfg, want) {
		t.Errorf("parsed %+v, want %+v", sc.cfg, want)
	}
	if _, err := parseArgs([]string{"-mode", "sometimes"}, io.Discard); err == nil || !strings.Contains(err.Error(), `unknown mode "sometimes"`) {
		t.Errorf("-mode sometimes: err = %v, want an unknown-mode refusal", err)
	}
}

// armsimOutput runs a scenario in-process exactly as main would and
// returns stdout followed by one digest line per file export (-trace,
// -spans, -obs-snapshot go to files in a scratch directory; they run to
// megabytes, so the fixture pins their length and SHA-256 instead of
// their bytes). Pool stats carry wall-clock timings and are discarded.
func armsimOutput(t *testing.T, sc scenario) []byte {
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
	var out bytes.Buffer
	if err := run(sc, &out, io.Discard); err != nil {
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
		name string
		edit func(t *testing.T, sc *scenario)
	}
	cases := []cell{
		{name: "defaults600", edit: func(_ *testing.T, sc *scenario) { sc.cfg.Duration = 600 }},
		{name: "replications3", edit: func(_ *testing.T, sc *scenario) { sc.replications, sc.parallel = 3, 2 }},
		{name: "faultplan", edit: func(t *testing.T, sc *scenario) {
			sc.faultPath = writeFile(t, "chaos.plan",
				"drop any 0.1\nat 120 cell-out off-2 for 60\nat 300 crash-signaling\n")
			sc.tracePath = "file"
		}},
		{name: "overload", edit: func(_ *testing.T, sc *scenario) {
			sc.overloadPath = "default"
			sc.cfg.Portables, sc.cfg.BMin, sc.cfg.BMax, sc.cfg.Duration = 40, 160e3, 320e3, 400
			sc.tracePath = "file"
		}},
		{name: "corridor", edit: func(_ *testing.T, sc *scenario) { sc.topo = "corridor" }},
		{name: "obs", edit: func(_ *testing.T, sc *scenario) {
			sc.summary = true
			sc.spansPath, sc.obsSnapshotPath = "file", "file"
		}},
		{name: "meetingwing-rivals", edit: func(_ *testing.T, sc *scenario) {
			sc.topo, sc.cfg.Mode = "meetingwing", armnet.ModeBruteForce
			sc.cfg.Allocator, sc.cfg.Admitter = "erica", "measured"
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc := flagDefaults()
			c.edit(t, &sc)
			checkGolden(t, c.name, armsimOutput(t, sc))
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
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
}

// TestCampusTraceGolden pins the head of the seed-1 predictive campus
// event trace, the stream `armsim -seed 1 -duration 2400 -trace FILE`
// writes, to a checked-in fixture: any drift in event taxonomy, payload
// encoding, stamping, or publication order of the control plane shows up
// as a diff here. Only the first lines are pinned to keep the fixture
// reviewable; full-trace determinism is covered by internal/sim.
// -obs-snapshot is set too: it must write a snapshot and leave the trace
// unchanged.
func TestCampusTraceGolden(t *testing.T) {
	const head = 50
	dir := t.TempDir()
	sc := flagDefaults()
	sc.cfg.Duration = 2400
	sc.tracePath, sc.obsSnapshotPath = filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "snap.prom")
	if err := run(sc, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(sc.obsSnapshotPath); err != nil || len(snap) == 0 {
		t.Fatalf("instrument snapshot missing (%d bytes): %v", len(snap), err)
	}
	trace, err := os.ReadFile(sc.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	if len(lines) < head {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	checkGolden(t, "campustrace", bytes.Join(lines[:head], nil))
}

// TestArmsimTraceEqualsCampusTrace holds armsim and the campus experiment
// to one stream: `armsim -seed 1 -duration 2400 -trace FILE` must write
// the bytes armnet.RunCampus of the same configuration writes to its
// trace writer.
func TestArmsimTraceEqualsCampusTrace(t *testing.T) {
	sc := flagDefaults()
	sc.cfg.Duration = 2400
	sc.tracePath = filepath.Join(t.TempDir(), "trace")
	if err := run(sc, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sc.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, _, err := armnet.RunCampus(armnet.CampusConfig{
		Config: armnet.Config{Seed: 1}, Portables: 24, Duration: 2400, BMin: 32e3, BMax: 128e3,
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

// TestArmsimRejectsBadBandwidthBounds: a NaN, infinite or non-positive
// -bmin or -bmax, and -bmin above -bmax, are refused before any run (a
// NaN b_min once booked 11 connections; inverted bounds once printed
// new-requested with neither an admitted nor a blocked row).
func TestArmsimRejectsBadBandwidthBounds(t *testing.T) {
	for _, b := range [][2]float64{
		{math.NaN(), 128e3}, {32e3, math.NaN()}, {math.Inf(1), math.Inf(1)},
		{0, 128e3}, {32e3, -1}, {200e3, 100e3},
	} {
		sc := flagDefaults()
		sc.cfg.Duration = 60
		sc.cfg.BMin, sc.cfg.BMax = b[0], b[1]
		var out bytes.Buffer
		if err := run(sc, &out, io.Discard); err == nil {
			t.Errorf("-bmin %v -bmax %v accepted:\n%s", b[0], b[1], out.String())
		}
	}
}

// TestArmsimRejectsBadFlags: flags outside their domain are refused with
// an error naming the flag or, for a fault plan, the rule, before the
// walk starts. A negative -portables once panicked in the walk generator; a
// NaN or negative -signal-timeout once ran as the hop-scaled default; a
// negative -signal-retries once meant "never retransmit"; a -fault-plan
// rule `on` a link the topology lacks would never fire; -replications 0
// once ran one replication and a negative -parallel ran at GOMAXPROCS;
// -telemetry-linger without -telemetry-addr once returned at once; a
// positional argument was once ignored.
func TestArmsimRejectsBadFlags(t *testing.T) {
	unknownLink := writeFile(t, "links.plan", "drop any 0.5\ndrop maxmin 1 on no-such-link\n")
	lossy := writeFile(t, "lossy.plan", "drop any 0.5\n")
	moves := writeFile(t, "moves.csv", "time,portable,from,to\n0,p00,,off-1\n")
	// arena refuses a flag the roster would otherwise ignore.
	arena := func(edit func(*scenario)) func(*scenario) {
		return func(sc *scenario) { sc.arena = true; edit(sc) }
	}
	const dropped = "-arena runs its roster on the plain campus walk; drop "
	for _, c := range []struct {
		want string          // the error's prefix
		edit func(*scenario) // nil: parseArgs sees stray words after the flags
	}{
		{`unexpected argument "stray"`, nil},
		{"-portables ", func(sc *scenario) { sc.cfg.Portables = -1 }},
		{"-signal-timeout ", func(sc *scenario) { sc.cfg.Signal.Timeout = math.NaN() }},
		{"-signal-timeout ", func(sc *scenario) { sc.cfg.Signal.Timeout = -1 }},
		{"-signal-timeout ", func(sc *scenario) { sc.cfg.Signal.Timeout = math.Inf(1) }},
		{"-signal-retries ", func(sc *scenario) { sc.cfg.Signal.MaxRetries = -2 }},
		{dropped + "-fault-plan", arena(func(sc *scenario) { sc.faultPath = lossy })},
		{dropped + "-overload-policy", arena(func(sc *scenario) { sc.overloadPath = "default" })},
		{dropped + "-signal-timeout", arena(func(sc *scenario) { sc.cfg.Signal.Timeout = 3 })},
		{dropped + "-signal-retries", arena(func(sc *scenario) { sc.cfg.Signal.MaxRetries = 5 })},
		{dropped + "-allocator", arena(func(sc *scenario) { sc.cfg.Allocator = "erica" })},
		{dropped + "-admitter", arena(func(sc *scenario) { sc.cfg.Admitter = "measured" })},
		{dropped + "-mobility-trace", arena(func(sc *scenario) { sc.mobilityPath = moves })},
		{dropped + "-replications", arena(func(sc *scenario) { sc.replications = 3 })},
		{dropped + "-trace", arena(func(sc *scenario) { sc.tracePath = "-" })},
		{dropped + "-obs-snapshot", arena(func(sc *scenario) { sc.obsSnapshotPath = "-" })},
		{dropped + "-obs-json", arena(func(sc *scenario) { sc.obsJSONPath = "-" })},
		{dropped + "-spans", arena(func(sc *scenario) { sc.spansPath = "-" })},
		{dropped + "-summary", arena(func(sc *scenario) { sc.summary = true })},
		{dropped + "-telemetry-addr", arena(func(sc *scenario) { sc.telemetryAddr = "127.0.0.1:0" })},
		{`trial 0: core: fault plan: drop maxmin rule on unknown link "no-such-link"`, func(sc *scenario) { sc.faultPath = unknownLink }},
		{"-replications ", func(sc *scenario) { sc.replications = 0 }},
		{"-replications ", func(sc *scenario) { sc.replications = -2 }},
		{"-parallel ", func(sc *scenario) { sc.parallel = -4 }},
		{"-telemetry-linger ", func(sc *scenario) { sc.telemetryLinger = 3 }},
		{"-telemetry-linger ", func(sc *scenario) { sc.telemetryAddr, sc.telemetryLinger = "127.0.0.1:0", -1 }},
		{"-telemetry-linger ", func(sc *scenario) { sc.telemetryAddr, sc.telemetryLinger = "127.0.0.1:0", math.Inf(1) }},
	} {
		args := []string{"-duration", "60"}
		if c.edit == nil {
			args = append(args, "stray", "words")
		}
		sc, err := parseArgs(args, io.Discard)
		var out bytes.Buffer
		if err == nil && c.edit != nil {
			c.edit(&sc)
			err = run(sc, &out, io.Discard)
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("err = %v, want a refusal starting %q; output:\n%s", err, c.want, out.String())
		}
	}
}

// TestArmsimFaultPlanLinkFires: a -fault-plan rule `on` a backbone link
// fires, so the link names the delivery hooks pass are the topology's.
func TestArmsimFaultPlanLinkFires(t *testing.T) {
	sc := flagDefaults()
	sc.cfg.Duration = 1200
	sc.faultPath = writeFile(t, "link.plan", "drop signal 0.5 on bs-off-1->air-off-1\n")
	var out bytes.Buffer
	if err := run(sc, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "faults-injected") {
		t.Errorf("the rule never fired:\n%s", out.String())
	}
}

// TestArmsimRejectsNonFiniteDuration: `-duration NaN` and `-duration Inf`
// are refused with an error rather than run forever (a NaN horizon once
// grew the mobility trace without bound).
func TestArmsimRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		sc := flagDefaults()
		sc.cfg.Duration = d
		done := make(chan error, 1)
		go func() { done <- run(sc, io.Discard, io.Discard) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("-duration %v accepted", d)
			}
		case <-time.After(time.Second):
			t.Fatalf("-duration %v: armsim still running after a second", d)
		}
	}
}

// TestArmsimRejectsBadBackbone: a topology file whose backbone section is
// out of range is refused with an error within seconds (a negative wired
// delay once spun armsim at full CPU, and a wireless loss above 1
// silently blocked every connection).
func TestArmsimRejectsBadBackbone(t *testing.T) {
	for _, backbone := range []string{`{"wiredDelay": -5}`, `{"wirelessLoss": 1.7}`, `{"wirelessLoss": -0.5}`, `{"hosts": -1}`} {
		sc := flagDefaults()
		sc.cfg.Duration = 600
		sc.topoFile = writeFile(t, "topo.json", `{"cells": [{"id": "off-1", "class": "office"}], "backbone": `+backbone+`}`)
		done := make(chan error, 1)
		go func() { done <- run(sc, io.Discard, io.Discard) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("backbone %s accepted", backbone)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("backbone %s: armsim still running after 5 s", backbone)
		}
	}
}
