package reserve

import "testing"

func BenchmarkNonBlockingProb(b *testing.B) {
	classes := paperClasses()
	for i := 0; i < b.N; i++ {
		if _, err := nonBlockingProb(classes, []int{20, 3}, []int{15, 2}, 40, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbabilisticPlan(b *testing.B) {
	classes := paperClasses()
	for i := 0; i < b.N; i++ {
		if _, err := ProbabilisticPlan(classes, []int{10, 1}, []int{10, 1}, 40, 0.05, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinomialPMFLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		binomialPMF(200, 0.37)
	}
}
