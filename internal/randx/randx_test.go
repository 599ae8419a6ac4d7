package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	r := New(1)
	const rate = 2.5
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(3)
	const p = 0.3
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := New(11)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Fatalf("weight-3/weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("all-zero categorical did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		size := int(n%32) + 1
		s := make([]int, size)
		for i := range s {
			s[i] = i
		}
		Shuffle(New(seed), s)
		seen := make([]bool, size)
		for _, v := range s {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: categorical never returns a zero-weight index.
func TestQuickCategoricalSupport(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return true
		}
		r := New(seed)
		for i := 0; i < 20; i++ {
			idx := r.Categorical(weights)
			if weights[idx] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
