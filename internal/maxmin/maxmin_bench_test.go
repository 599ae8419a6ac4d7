package maxmin

import (
	"testing"

	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/randx"
)

func benchProblem(nLinks, nConns int) Problem {
	rng := randx.New(1)
	return randomProblem(rng, nLinks, nConns)
}

func BenchmarkWaterFillSmall(b *testing.B) {
	p := benchProblem(4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WaterFill(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaterFillLarge(b *testing.B) {
	rng := randx.New(2)
	p := Problem{Capacity: map[string]float64{}}
	links := make([]string, 32)
	for i := range links {
		links[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
		p.Capacity[links[i]] = 5 + rng.Float64()*20
	}
	for i := 0; i < 200; i++ {
		pathLen := 1 + rng.Intn(6)
		perm := rng.Perm(32)[:pathLen]
		path := make([]string, pathLen)
		for j, k := range perm {
			path[j] = links[k]
		}
		p.Conns = append(p.Conns, Conn{ID: string(rune('A'+i%26)) + string(rune('0'+i/26)), Path: path, Demand: Inf})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WaterFill(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncSolver(b *testing.B) {
	p := benchProblem(4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SyncSolver{}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdvertisedRate(b *testing.B) {
	recorded := make([]float64, 64)
	rng := randx.New(3)
	for i := range recorded {
		recorded[i] = rng.Float64() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdvertisedRate(100, recorded)
	}
}

func BenchmarkProtocolSession(b *testing.B) {
	p := benchProblem(3, 6)
	for i := 0; i < b.N; i++ {
		sim := des.New()
		pr := NewProtocolOn(clock.Sim(sim), ProtocolOptions{Refined: true})
		for _, l := range p.sortedLinks() {
			_ = pr.AddLink(l, p.Capacity[l])
		}
		for _, c := range p.Conns {
			_ = pr.AddConn(c)
		}
		pr.KickAll()
		if err := sim.RunUntil(500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolSettledKick times one Kick run to quiescence on a
// settled 3-link, 24-connection instance: the session re-stamps the rates
// the switches already hold, the path office-churn spends its time on.
// BenchmarkProtocolSession above is the cold path, where every hop moves
// a recorded rate.
func BenchmarkProtocolSettledKick(b *testing.B) {
	pr, settle := settledPath(b, 24, Paper)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pr.Kick("c7") {
			b.Fatal("Kick(c7) started no session")
		}
		settle()
	}
}
