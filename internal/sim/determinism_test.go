package sim

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"armnet/internal/core"
	"armnet/internal/obs"
	"armnet/internal/runner"
	"armnet/internal/topology"
)

// detCampusCfg keeps the determinism runs short but non-trivial: long
// enough for handoffs, reservations and pool claims to accumulate.
var detCampusCfg = CampusConfig{Config: core.Config{Seed: 7}, Portables: 12, Duration: 900}

// seedTrials runs n seed-split replications of one trial over runner.Map:
// replication i gets runner.SplitSeed(seed, i), so replication 0 keeps
// seed itself.
func seedTrials[R any](seed int64, n, workers int, trial func(seed int64) (R, error)) ([]R, runner.Stats, error) {
	return runner.Map(context.Background(), workers, n, func(_ context.Context, i int) (R, error) {
		return trial(runner.SplitSeed(seed, i))
	})
}

// trialsOK fails the test on a trial error.
func trialsOK(t *testing.T, st runner.Stats, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// rendered fails the test on a trial error and returns v in %+v form,
// which spells every float exactly, for byte comparison.
func rendered(t *testing.T, v any, st runner.Stats, err error) []byte {
	t.Helper()
	trialsOK(t, st, err)
	return fmt.Appendf(nil, "%+v", v)
}

// TestExperimentTraceDeterminismAcrossWorkers is the replication gate for
// every multi-trial experiment: each row renders its output at 1, 2 and 8
// workers, and the bytes must equal the serial run's. Every trial builds
// its own simulator, environment and RNGs and runner.Map collects in trial
// order, so any divergence means a trial read shared or scheduling-
// dependent state. (The name matches the `make trace-determinism` gate's
// -run pattern.)
func TestExperimentTraceDeterminismAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, workers int) []byte
	}{
		{"campus-comparison", func(t *testing.T, workers int) []byte {
			rs, st, err := RunCampusComparison(ctx, detCampusCfg, workers)
			if len(rs) != len(campusModes) {
				t.Fatalf("expected %d modes, got %d", len(campusModes), len(rs))
			}
			return rendered(t, rs, st, err)
		}},
		{"tth", func(t *testing.T, workers int) []byte {
			pts, st, err := RunTthSensitivity(ctx, detCampusCfg, []float64{30, 120, 600}, workers)
			return rendered(t, pts, st, err)
		}},
		{"theorem1", func(t *testing.T, workers int) []byte {
			r, st, err := RunTheorem1(ctx, Theorem1Config{Seed: 5, Instances: 16, Refined: true, Perturb: true}, workers)
			return rendered(t, r, st, err)
		}},
		{"grid-replications", func(t *testing.T, workers int) []byte {
			rs, st, err := seedTrials(3, 4, workers, func(seed int64) (string, error) {
				env, err := topology.BuildGrid(2, 3, 1.6e6)
				if err != nil {
					return "", err
				}
				mgr, err := RunWalk(env, CampusConfig{Config: core.Config{Seed: seed}, Portables: 16, Duration: 600, Dwell: 150}.withDefaults(), nil, nil)
				if err != nil {
					return "", err
				}
				return outcome(mgr, nil), nil
			})
			return rendered(t, rs, st, err)
		}},
		{"obs-snapshot-replications", func(t *testing.T, workers int) []byte {
			cfg := CampusConfig{Config: core.Config{Seed: 1, Obs: &obs.Options{}}, Portables: 10, Duration: 600}
			snaps, st, err := seedTrials(cfg.Seed, 4, workers, func(seed int64) (*obs.Snapshot, error) {
				c := cfg
				c.Seed = seed
				_, mgr, err := RunCampus(c, nil)
				if err != nil {
					return nil, err
				}
				return mgr.Obs.Snapshot(), nil
			})
			trialsOK(t, st, err)
			merged, err := obs.MergeAll(snaps)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil || merged.Runs != 4 {
				t.Fatalf("merged snapshot = %+v, want 4 runs", merged)
			}
			return append(merged.Prometheus(), merged.JSON()...)
		}},
		{"arena", func(t *testing.T, workers int) []byte {
			entries, st, err := RunArena(ctx, arenaGoldenCfg, workers)
			if len(entries) < 3 {
				t.Fatalf("arena ran %d pairs, want >= 3", len(entries))
			}
			trialsOK(t, st, err)
			return RenderArena(arenaGoldenCfg, entries)
		}},
		{"fig5", func(t *testing.T, workers int) []byte {
			rs, st, err := RunFigure5Comparison(ctx, 3, 400, workers)
			return rendered(t, rs, st, err)
		}},
		{"fig6", func(t *testing.T, workers int) []byte {
			curves, st, err := RunFigure6Sweep(ctx, 3, []float64{0.02, 0.2}, []float64{0.01, 0.1}, 20, workers)
			return rendered(t, curves, st, err)
		}},
		// A span writer set on a multi-trial config must not be shared by
		// concurrent trials (under -race this row failed while it was).
		{"spans-writer", func(t *testing.T, workers int) []byte {
			var spans bytes.Buffer
			cfg := detCampusCfg
			cfg.Obs = &obs.Options{Spans: &spans}
			rs, st, err := RunCampusComparison(ctx, cfg, workers)
			if spans.Len() != 0 {
				t.Fatalf("a multi-trial run wrote %d span bytes to the shared writer", spans.Len())
			}
			if cfg.Obs.Spans != &spans {
				t.Fatal("a multi-trial run cleared the caller's span writer")
			}
			return rendered(t, rs, st, err)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.run(t, 1)
			for _, workers := range []int{2, 8} {
				if got := tc.run(t, workers); !bytes.Equal(got, serial) {
					t.Fatalf("workers=%d diverged from serial:\nserial:   %s\nparallel: %s", workers, serial, got)
				}
			}
		})
	}
}
