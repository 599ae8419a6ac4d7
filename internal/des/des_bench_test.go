package des

import "testing"

// BenchmarkScheduleAndFire measures the simulator's hot scheduling
// loop: the handle-free Post path every per-hop/per-packet caller uses,
// with the fired record recycled through the freelist (steady-state
// zero allocations).
func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+1, func() {})
		s.step()
	}
}

// BenchmarkScheduleAndFireHandle is the cancelable At variant: one
// event record per schedule, since a handle escapes.
func BenchmarkScheduleAndFireHandle(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+1, func() {})
		s.step()
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	// Keep 1024 events pending while firing, stressing heap reordering.
	s := New()
	for i := 0; i < 1024; i++ {
		var rearm func()
		rearm = func() { s.PostAfter(float64(i%7)+1, rearm) }
		s.PostAfter(float64(i%7)+1, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

func BenchmarkTicker(b *testing.B) {
	s := New()
	n := 0
	s.Every(1, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
	if n == 0 {
		b.Fatal("ticker never fired")
	}
}

// BenchmarkFixedDelayChurn is office-churn's schedule mix at its queue
// depth: about 860 events pending, each re-arming itself with
// PostAfter — 77 % at 0.008 s (the four-hop ADVERTISE round trip), 19 %
// at 0.004 s (the UPDATE) and the rest at one of 61 other delays.
func BenchmarkFixedDelayChurn(b *testing.B) {
	s := New()
	k := 0
	var rearm func()
	rearm = func() {
		k++
		d := 0.008
		switch r := k * 37 % 100; {
		case r >= 96:
			d = 0.002 + float64(k%61)*1e-4
		case r >= 77:
			d = 0.004
		}
		s.PostAfter(d, rearm)
	}
	for i := 0; i < 860; i++ {
		rearm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}
