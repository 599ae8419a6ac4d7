package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"armnet/internal/core"
	"armnet/internal/obs"
)

// arenaGoldenCfg is the pinned seed-1 arena scenario behind the golden.
// The demand bounds load the wireless cells hard enough that the
// admitters genuinely disagree (blocking vs handoff drops) — a lighter
// workload renders every pair identical and the comparison is vacuous.
var arenaGoldenCfg = ArenaConfig{CampusConfig: CampusConfig{Config: core.Config{Seed: 1}, Portables: 24, Duration: 900, BMin: 256e3, BMax: 1.2e6}}

// TestArenaSnapshotGolden pins the seed-1 arena comparative snapshot.
// Any drift means a strategy's decisions, the workload, or the renderer
// changed — regenerate deliberately with
// `go test ./internal/sim -run TestArenaSnapshotGolden -update`.
func TestArenaSnapshotGolden(t *testing.T) {
	entries, _, err := RunArena(context.Background(), arenaGoldenCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rendered := RenderArena(arenaGoldenCfg, entries)
	path := filepath.Join("testdata", "arenasnapshot.golden")
	if *update {
		if err := os.WriteFile(path, rendered, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(rendered, want) {
		t.Fatalf("arena snapshot drifted from golden:\ngot:\n%s\nwant:\n%s", rendered, want)
	}
}

// TestArenaDefaultPairMatchesCampus: the arena's default-pair entry must
// reproduce the plain campus run exactly — naming the defaults and arming
// obs change nothing about the simulation.
func TestArenaDefaultPairMatchesCampus(t *testing.T) {
	cfg := arenaGoldenCfg
	cfg.pairs = []StrategyPair{{}} // empty names = paper defaults
	entries, _, err := RunArena(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Pair.label() != "maxmin+table2" {
		t.Fatalf("default pair label = %q", entries[0].Pair.label())
	}
	plain, _, err := RunCampus(cfg.CampusConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].CampusResult != plain {
		t.Fatalf("default arena entry diverged from plain campus run:\n%+v\nvs\n%+v",
			entries[0].CampusResult, plain)
	}
}

// TestArenaRivalStrategiesRun: every roster pair actually ran its own
// strategies — rival allocators report control work and the rival
// admitter changes admission outcomes relative to Table 2.
func TestArenaRivalStrategiesRun(t *testing.T) {
	entries, _, err := RunArena(context.Background(), arenaGoldenCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ArenaEntry{}
	for _, e := range entries {
		byLabel[e.Pair.label()] = e
	}
	for _, label := range []string{"maxmin+table2", "erica+table2", "maxmin+measured", "erica+measured"} {
		e, ok := byLabel[label]
		if !ok {
			t.Fatalf("missing arena entry %s", label)
		}
		if e.Control.Sessions == 0 {
			t.Errorf("%s: allocator ran no adaptation sessions", label)
		}
		if e.Handoffs == 0 {
			t.Errorf("%s: workload produced no handoffs", label)
		}
	}
	if byLabel["maxmin+table2"].Control.Messages <= byLabel["erica+table2"].Control.Messages/2 {
		t.Errorf("maxmin (%d msgs) should cost well over half of erica's per-session budget ratio (erica %d msgs)",
			byLabel["maxmin+table2"].Control.Messages, byLabel["erica+table2"].Control.Messages)
	}
}

// TestArenaTraceDeterminismAcrossRuns repeats the pinned arena roster in
// one process and requires every pair's whole event trace and span
// export, and the rendered comparison, to come out byte-identical every
// time. The ledger, the advance book and WFQ keep their tables in maps;
// a map-order walk leaking into any output shows within a few runs.
func TestArenaTraceDeterminismAcrossRuns(t *testing.T) {
	var first []byte
	for run := 0; run < 5; run++ {
		var out bytes.Buffer
		for _, pair := range DefaultArenaPairs() {
			c := arenaGoldenCfg.CampusConfig
			var trace, spans bytes.Buffer
			c.Allocator, c.Admitter, c.Obs = pair.Allocator, pair.Admitter, &obs.Options{Spans: &spans}
			if _, _, err := RunCampus(c, &trace); err != nil {
				t.Fatalf("%s: %v", pair.label(), err)
			}
			if !bytes.Contains(trace.Bytes(), []byte(`"type":"advance-reservation"`)) {
				t.Fatalf("%s: trace books no advance reservation", pair.label())
			}
			fmt.Fprintf(&out, "== %s\n", pair.label())
			out.Write(trace.Bytes())
			out.Write(spans.Bytes())
		}
		entries, _, err := RunArena(context.Background(), arenaGoldenCfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(RenderArena(arenaGoldenCfg, entries))
		if first == nil {
			first = out.Bytes()
			continue
		}
		if again := out.Bytes(); !bytes.Equal(again, first) {
			t.Fatalf("run %d diverged from run 0 (%d vs %d bytes): %s", run, len(again), len(first), firstDiffLine(first, again))
		}
	}
}
