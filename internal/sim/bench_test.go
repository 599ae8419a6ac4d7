package sim

import "testing"

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

// BenchmarkScaleGridBuilding runs the integrated manager on a 48-cell
// building with 80 portables and reports simulator throughput.
func BenchmarkScaleGridBuilding(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		r, err := runGrid(gridConfig{Seed: int64(i + 1), Duration: 900})
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
