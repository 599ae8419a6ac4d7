package main

import (
	"bytes"
	"fmt"
	"testing"

	"armnet"
	"armnet/internal/mobility"
)

// TestRandomWalkReplaysAsArmsimsOwnWalk is the tracegen ↔ armsim
// contract: `tracegen -model randomwalk -seed S+1 | armsim -seed S
// -mobility-trace` is `armsim -seed S`. The CSV round trip must lose
// nothing (times are written at full precision), and the replay branch of
// the walk armsim runs must behave exactly as the branch that generates
// the movement itself — same report counters, same event-trace bytes.
func TestRandomWalkReplaysAsArmsimsOwnWalk(t *testing.T) {
	const seed = 1
	tr, err := generate("randomwalk", seed+1, 0, 0, "campus", 24, 600, 180)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	replay, err := mobility.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := armnet.CampusConfig{Config: armnet.Config{Seed: seed}, Portables: 24, Duration: 600, Dwell: 180, BMin: 32e3, BMax: 128e3}
	run := func(replay *mobility.Trace) (report string, trace []byte) {
		env, err := armnet.BuildCampus()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		mgr, err := armnet.RunWalk(env, cfg, replay, &buf)
		if err != nil {
			t.Fatal(err)
		}
		lat := mgr.Latency
		return fmt.Sprintf("%s predicted=%v/%d unpredicted=%v/%d", mgr.Met.Counter,
			lat.Predicted.Mean(), lat.Predicted.N(), lat.Unpredicted.Mean(), lat.Unpredicted.N()), buf.Bytes()
	}
	ownReport, ownTrace := run(nil)
	gotReport, gotTrace := run(replay)
	if bytes.Count(ownTrace, []byte(`"type":"handoff-attempt"`)) == 0 {
		t.Fatal("the walk produced no handoffs; the comparison would prove nothing")
	}
	if gotReport != ownReport {
		t.Fatalf("replayed report differs from armsim's own walk:\n%s\nvs\n%s", gotReport, ownReport)
	}
	if !bytes.Equal(gotTrace, ownTrace) {
		t.Fatalf("replayed event trace (%d bytes) differs from armsim's own walk (%d bytes)", len(gotTrace), len(ownTrace))
	}
}

// TestGenerateModels checks every model and topology name produces a
// chain-valid trace, and unknown names are errors rather than empty output.
func TestGenerateModels(t *testing.T) {
	cases := []struct{ model, topo string }{
		{"officeweek", ""}, {"meeting", ""},
		{"randomwalk", "campus"}, {"randomwalk", "figure4"},
		{"randomwalk", "meetingwing"}, {"randomwalk", "corridor"},
	}
	for _, c := range cases {
		tr, err := generate(c.model, 1, 35, 40, c.topo, 6, 600, 120)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.model, c.topo, err)
		}
		if len(tr.Moves) == 0 {
			t.Fatalf("%s/%s: empty trace", c.model, c.topo)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", c.model, c.topo, err)
		}
	}
	if _, err := generate("teleport", 1, 0, 0, "campus", 6, 600, 120); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := generate("randomwalk", 1, 0, 0, "atlantis", 6, 600, 120); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
