package sim

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateArena = flag.Bool("update-arena", false, "rewrite the arena snapshot golden from current output")

// arenaGoldenCfg is the pinned seed-1 arena scenario behind the golden.
// The demand bounds load the wireless cells hard enough that the
// admitters genuinely disagree (blocking vs handoff drops) — a lighter
// workload renders every pair identical and the comparison is vacuous.
var arenaGoldenCfg = ArenaConfig{CampusConfig: CampusConfig{Seed: 1, Portables: 24, Duration: 900, BMin: 256e3, BMax: 1.2e6}}

// TestArenaTraceDeterminismAcrossWorkers: the rendered comparative
// snapshot must be byte-identical whether the roster runs serially or
// fanned across a worker pool — every trial is self-contained, and the
// runner returns entries in roster order. (The name matches the
// `make trace-determinism` gate's -run pattern, so this joins the ci
// replication check automatically.)
func TestArenaTraceDeterminismAcrossWorkers(t *testing.T) {
	entries, err := RunArena(arenaGoldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("arena ran %d pairs, want >= 3", len(entries))
	}
	serial := RenderArena(arenaGoldenCfg, entries)
	for _, workers := range []int{2, 8} {
		got, st, err := RunArenaSweep(context.Background(), arenaGoldenCfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Failed != 0 {
			t.Fatalf("workers=%d: unexpected stats %+v", workers, st)
		}
		if rendered := RenderArena(arenaGoldenCfg, got); !bytes.Equal(rendered, serial) {
			t.Fatalf("workers=%d: arena snapshot diverged from serial:\n%s\nvs\n%s",
				workers, rendered, serial)
		}
	}
}

// TestArenaSnapshotGolden pins the seed-1 arena comparative snapshot.
// Any drift means a strategy's decisions, the workload, or the renderer
// changed — regenerate deliberately with
// `go test ./internal/sim -run TestArenaSnapshotGolden -update-arena`.
func TestArenaSnapshotGolden(t *testing.T) {
	entries, err := RunArena(arenaGoldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	rendered := RenderArena(arenaGoldenCfg, entries)
	path := filepath.Join("testdata", "arenasnapshot.golden")
	if *updateArena {
		if err := os.WriteFile(path, rendered, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-arena)", err)
	}
	if !bytes.Equal(rendered, want) {
		t.Fatalf("arena snapshot drifted from golden:\ngot:\n%s\nwant:\n%s", rendered, want)
	}
}

// TestArenaDefaultPairMatchesCampus: the arena's default-pair entry must
// reproduce the plain campus run exactly — the seam and the obs arming
// change nothing about the simulation.
func TestArenaDefaultPairMatchesCampus(t *testing.T) {
	cfg := arenaGoldenCfg
	cfg.Pairs = []StrategyPair{{}} // empty names = paper defaults
	entries, err := RunArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Pair.Label() != "maxmin+table2" {
		t.Fatalf("default pair label = %q", entries[0].Pair.Label())
	}
	plain, err := RunCampus(cfg.CampusConfig)
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
	entries, err := RunArena(arenaGoldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ArenaEntry{}
	for _, e := range entries {
		byLabel[e.Pair.Label()] = e
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
