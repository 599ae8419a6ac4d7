package armnet_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out. Each benchmark
// reports the experiment's headline numbers as custom metrics so a bench
// run regenerates the paper's rows, not just timings.

import (
	"context"
	"testing"

	"armnet"
	"armnet/internal/sched"
)

// BenchmarkTable2AdmissionWFQ times the full round-trip admission test of
// Table 2 under WFQ buffer rows.
func BenchmarkTable2AdmissionWFQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := armnet.RunTable2(armnet.Table2Config{Discipline: sched.DisciplineWFQ})
		if err != nil || !r.Admitted {
			b.Fatalf("admission failed: %v %v", err, r.Reason)
		}
	}
}

// BenchmarkTable2AdmissionRCSP is the RCSP variant of Table 2.
func BenchmarkTable2AdmissionRCSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := armnet.RunTable2(armnet.Table2Config{Discipline: sched.DisciplineRCSP})
		if err != nil || !r.Admitted {
			b.Fatalf("admission failed: %v %v", err, r.Reason)
		}
	}
}

// BenchmarkFigure2LoungeActivity regenerates the lounge handoff-activity
// profile of Figure 2.
func BenchmarkFigure2LoungeActivity(b *testing.B) {
	peak := 0
	for i := 0; i < b.N; i++ {
		r, err := armnet.RunFigure2(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range r.Activity {
			if v > peak {
				peak = v
			}
		}
	}
	b.ReportMetric(float64(peak), "peak-handoffs/slot")
}

// BenchmarkFigure4OfficePrediction regenerates the §7.1 office
// next-cell prediction study on the calibrated trace.
func BenchmarkFigure4OfficePrediction(b *testing.B) {
	var last armnet.Figure4Result
	for i := 0; i < b.N; i++ {
		r, err := armnet.RunFigure4(armnet.Figure4Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Faculty.Correct)/float64(max(1, last.Faculty.Transits)), "faculty-accuracy")
	b.ReportMetric(float64(last.Students.Correct)/float64(max(1, last.Students.Transits)), "student-accuracy")
	b.ReportMetric(float64(last.Crowd.BruteForceCells)/float64(max(1, last.Crowd.ReservedCells)), "bruteforce-waste-x")
}

// BenchmarkFigure5MeetingRoom regenerates the §7.1 meeting-room drop
// comparison (brute force / aggregation / meeting room at 35 and 55
// students).
func BenchmarkFigure5MeetingRoom(b *testing.B) {
	var drops [3]int
	for i := 0; i < b.N; i++ {
		rs, _, err := armnet.RunFigure5Comparison(context.Background(), int64(i+1), 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Students == 55 {
				drops[int(r.Algorithm)] += r.Drops
			}
		}
	}
	b.ReportMetric(float64(drops[armnet.AlgBruteForce])/float64(b.N), "bruteforce-drops")
	b.ReportMetric(float64(drops[armnet.AlgAggregation])/float64(b.N), "aggregation-drops")
	b.ReportMetric(float64(drops[armnet.AlgMeetingRoom])/float64(b.N), "meetingroom-drops")
}

// BenchmarkFigure6DefaultReservation regenerates one operating point of
// the §7.2 P_d/P_b study: a one-window, one-target sweep.
func BenchmarkFigure6DefaultReservation(b *testing.B) {
	var pd, pb float64
	for i := 0; i < b.N; i++ {
		curves, _, err := armnet.RunFigure6Sweep(context.Background(), int64(i+1), []float64{0.05}, []float64{0.05}, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := curves[0].Points[0]
		pd += r.Pd
		pb += r.Pb
	}
	b.ReportMetric(pd/float64(b.N), "Pd")
	b.ReportMetric(pb/float64(b.N), "Pb")
}

// BenchmarkFigure6Sweep times the full curve family (small horizon).
func BenchmarkFigure6Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := armnet.RunFigure6Sweep(context.Background(), int64(i+1),
			[]float64{0.02, 0.1}, []float64{0.01, 0.05, 0.2}, 50, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1Convergence measures the event-driven maxmin protocol
// reaching the optimal allocation (refined variant).
func BenchmarkTheorem1Convergence(b *testing.B) {
	msgs := 0
	for i := 0; i < b.N; i++ {
		r, _, err := armnet.RunTheorem1(context.Background(), armnet.Theorem1Config{
			Seed: int64(i + 1), Instances: 5, Refined: true, Perturb: true,
		}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if r.Converged != r.Instances {
			b.Fatalf("convergence failed: %d/%d", r.Converged, r.Instances)
		}
		msgs += r.TotalMessages
	}
	b.ReportMetric(float64(msgs)/float64(b.N*5), "messages/instance")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationRefinedVsFlooding quantifies the M(l) refinement's
// control-message savings.
func BenchmarkAblationRefinedVsFlooding(b *testing.B) {
	var refined, naive int
	for i := 0; i < b.N; i++ {
		r1, _, err := armnet.RunTheorem1(context.Background(), armnet.Theorem1Config{Seed: int64(i + 1), Instances: 5, Refined: true, Perturb: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
		r2, _, err := armnet.RunTheorem1(context.Background(), armnet.Theorem1Config{Seed: int64(i + 1), Instances: 5, Refined: false, Perturb: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
		refined += r1.TotalMessages
		naive += r2.TotalMessages
	}
	b.ReportMetric(float64(naive)/float64(max(1, refined)), "flooding-overhead-x")
}

// BenchmarkAblationPredictiveVsBruteForce runs the integrated manager on
// the campus under the three reservation modes and reports blocking.
func BenchmarkAblationPredictiveVsBruteForce(b *testing.B) {
	run := func(mode armnet.Config) (blocked int64) {
		env, err := armnet.BuildCampus()
		if err != nil {
			b.Fatal(err)
		}
		net, err := armnet.NewNetwork(env, mode)
		if err != nil {
			b.Fatal(err)
		}
		req := armnet.Request{
			Bandwidth: armnet.Bounds{Min: 64e3, Max: 128e3},
			Delay:     5, Jitter: 5, Loss: 0.05,
			Traffic: armnet.TrafficSpec{Sigma: 16e3, Rho: 64e3},
		}
		cells := []armnet.CellID{"off-1", "off-2", "cor-w1", "cor-w2", "cor-e1", "off-3"}
		for i := 0; i < 72; i++ {
			id := string(rune('a' + i%26))
			pid := "p" + id + string(rune('0'+i/26))
			if err := net.PlacePortable(pid, cells[i%len(cells)]); err != nil {
				b.Fatal(err)
			}
			_, _ = net.OpenConnection(pid, req)
		}
		_ = net.RunUntil(120)
		return net.Metrics().Counter.Get(armnet.CtrNewBlocked)
	}
	var pred, brute int64
	for i := 0; i < b.N; i++ {
		pred += run(armnet.Config{Seed: int64(i + 1), Mode: armnet.ModePredictive})
		brute += run(armnet.Config{Seed: int64(i + 1), Mode: armnet.ModeBruteForce})
	}
	b.ReportMetric(float64(pred)/float64(b.N), "predictive-blocked")
	b.ReportMetric(float64(brute)/float64(b.N), "bruteforce-blocked")
}

// BenchmarkAblationTthSensitivity sweeps the static/mobile threshold and
// reports the reservation volume at the extremes.
func BenchmarkAblationTthSensitivity(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		pts, _, err := armnet.RunTthSensitivity(context.Background(), armnet.CampusConfig{
			Config: armnet.Config{Seed: int64(i + 1)}, Portables: 16, Duration: 900, Dwell: 120,
		}, []float64{30, 600}, 1)
		if err != nil {
			b.Fatal(err)
		}
		small += pts[0].PredictedShare
		large += pts[1].PredictedShare
	}
	b.ReportMetric(small/float64(b.N), "predicted-share-Tth30")
	b.ReportMetric(large/float64(b.N), "predicted-share-Tth600")
}

// BenchmarkAblationLooseVsRigidBounds quantifies §2.1's motivation: the
// capacity harvested and the violation time under channel fades.
func BenchmarkAblationLooseVsRigidBounds(b *testing.B) {
	var looseUtil, rigidUtil, looseOver, rigidOver float64
	for i := 0; i < b.N; i++ {
		l, r, err := armnet.RunBounds(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		looseUtil += l.MeanUtilization
		rigidUtil += r.MeanUtilization
		looseOver += l.OvercommitFraction
		rigidOver += r.OvercommitFraction
	}
	n := float64(b.N)
	b.ReportMetric(looseUtil/n, "loose-utilization")
	b.ReportMetric(rigidUtil/n, "rigid-utilization")
	b.ReportMetric(looseOver/n, "loose-overcommit")
	b.ReportMetric(rigidOver/n, "rigid-overcommit")
}

// BenchmarkArenaHeadToHead runs the full strategy roster over the loaded
// campus workload — every registered allocator/admitter pair on the
// identical seed — and reports the headline comparison as metrics: the
// paper pair's drop rate and control-packet bill against the cheapest
// rival's, plus roster throughput.
func BenchmarkArenaHeadToHead(b *testing.B) {
	cfg := armnet.ArenaConfig{CampusConfig: armnet.CampusConfig{Portables: 24, Duration: 900, BMin: 256e3, BMax: 1.2e6}}
	var paperDrop, paperMsgs, minMsgs float64
	var pairs int
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		entries, _, err := armnet.RunArena(context.Background(), cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(entries)
		low := -1.0
		for _, e := range entries {
			if e.Pair.Allocator+"+"+e.Pair.Admitter == "maxmin+table2" {
				paperDrop += e.DropRate
				paperMsgs += float64(e.Control.Messages)
			}
			if m := float64(e.Control.Messages); low < 0 || m < low {
				low = m
			}
		}
		minMsgs += low
	}
	n := float64(b.N)
	b.ReportMetric(paperDrop/n, "paper-drop-rate")
	b.ReportMetric(paperMsgs/n, "paper-control-msgs")
	b.ReportMetric(minMsgs/n, "cheapest-control-msgs")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		simulated := float64(cfg.Portables) * cfg.Duration * float64(pairs) * float64(b.N)
		b.ReportMetric(simulated/secs, "portable-secs/s")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
