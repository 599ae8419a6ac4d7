package sim

import (
	"testing"

	"armnet/internal/core"
	"armnet/internal/topology"
)

// BenchmarkAblationExactVsStaticReservation compares the probabilistic
// algorithm against the static baseline at one operating point.
func BenchmarkAblationExactVsStaticReservation(b *testing.B) {
	var probPd, statPd float64
	for i := 0; i < b.N; i++ {
		p, err := runFigure6(figure6Config{Seed: int64(i + 1), T: 0.05, PQoS: 0.05, Horizon: 80})
		if err != nil {
			b.Fatal(err)
		}
		s, err := runFigure6(figure6Config{Seed: int64(i + 1), T: 0.05, Static: true, StaticReserve: 4, Horizon: 80})
		if err != nil {
			b.Fatal(err)
		}
		probPd += p.Pd
		statPd += s.Pd
	}
	b.ReportMetric(probPd/float64(b.N), "probabilistic-Pd")
	b.ReportMetric(statPd/float64(b.N), "static-Pd")
}

// BenchmarkScaleGridBuilding runs the campus walk on a 4×6-office
// building (48 cells) with 80 portables and reports simulator throughput.
func BenchmarkScaleGridBuilding(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		env, err := topology.BuildGrid(4, 6, 1.6e6)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := RunWalk(env, CampusConfig{Config: core.Config{Seed: int64(i + 1)}, Portables: 80, Duration: 900, Dwell: 150}.withDefaults(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += mgr.Sim.Fired()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
