package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"armnet/internal/core"
	"armnet/internal/obs"
)

// obsGoldenCfg is the pinned seed-1 observed campus scenario behind the
// snapshot goldens.
var obsGoldenCfg = CampusConfig{Config: core.Config{Seed: 1, Obs: &obs.Options{}}, Portables: 12, Duration: 900}

// TestObsZeroPerturbation is the observability layer's headline guarantee:
// arming the observer changes NOTHING about the simulation. The full JSONL
// event trace — every event, every sequence number, every timestamp — must
// be byte-identical with the observer on and off.
func TestObsZeroPerturbation(t *testing.T) {
	cfg := CampusConfig{Config: core.Config{Seed: 7}, Portables: 12, Duration: 900}
	var plain, observed bytes.Buffer
	if _, _, err := RunCampus(cfg, &plain); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = &obs.Options{}
	resObs, _, err := RunCampus(cfg, &observed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatal("arming the observer perturbed the event trace")
	}
	if resObs.Handoffs == 0 {
		t.Fatal("scenario produced no handoffs; the comparison is vacuous")
	}
}

// TestObsSnapshotGolden pins the seed-1 observed run's snapshot in both
// formats. Any byte of drift means instrument registration order, bucket
// bounds, label rendering, or the underlying simulation changed —
// regenerate deliberately with
// `go test ./internal/sim -run TestObsSnapshotGolden -update`.
func TestObsSnapshotGolden(t *testing.T) {
	_, mgr, err := RunCampus(obsGoldenCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := mgr.Obs.Snapshot()
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"obssnapshot.golden", snap.Prometheus()},
		{"obssnapshot.json.golden", snap.JSON()},
	} {
		golden := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Fatalf("obs snapshot drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, g.got, want)
		}
	}
	// The summary derived from the pinned snapshot must stay physical.
	sum := snap.Summary()
	if sum.Requests == 0 || sum.Handoffs == 0 {
		t.Fatalf("pinned run summary is vacuous: %+v", sum)
	}
	if sum.BlockRate < 0 || sum.BlockRate > 1 || sum.DropRate < 0 || sum.DropRate > 1 {
		t.Fatalf("summary rates out of range: %+v", sum)
	}
}

// TestObsSpanExportDeterministic: the JSONL lifecycle-span stream of a
// fixed config must be byte-identical across runs, and every exported
// line must be a span of the expected shape.
func TestObsSpanExportDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cfg := CampusConfig{Config: core.Config{Seed: 3, Obs: &obs.Options{Spans: &buf}}, Portables: 8, Duration: 400}
		if _, _, err := RunCampus(cfg, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("observed run exported no spans")
	}
	if !bytes.Contains(first, []byte(`"name":"lifecycle"`)) ||
		!bytes.Contains(first, []byte(`"name":"handoff"`)) {
		t.Fatal("span stream lacks lifecycle or handoff spans")
	}
	if !bytes.Equal(first, run()) {
		t.Fatal("span export is not deterministic across runs")
	}
}
