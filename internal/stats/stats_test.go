package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 1) // value 1 on [0, 2)
	tw.Set(2, 3) // value 3 on [2, 4)
	if got := tw.Mean(4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %v, want 2", got)
	}
	tw.Set(4, 1) // value 1 on [4, 6)
	if got := tw.Mean(6); math.Abs(got-(1*2+3*2+1*2)/6.0) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	var empty TimeWeighted
	if empty.Mean(10) != 0 {
		t.Fatal("empty mean not zero")
	}
}

func TestHistogram(t *testing.T) {
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	h.Observe(5.5)
	h.Observe(5.6)
	h.Observe(-3)  // clamps to first bin
	h.Observe(100) // clamps to last bin
	if h.bins[0] != 2 || h.bins[5] != 2 || h.bins[9] != 1 {
		t.Fatalf("bins = %v", h.bins)
	}
	if h.n != 5 {
		t.Fatalf("n = %d", h.n)
	}
	if c := h.binCenter(5); math.Abs(c-5.5) > 1e-12 {
		t.Fatalf("center = %v", c)
	}
	if q := h.Quantile(0.5); q < 0 || q > 10 {
		t.Fatalf("quantile = %v", q)
	}
}

func TestTable(t *testing.T) {
	tb := Table{Header: []string{"alg", "drops"}}
	tb.AddRow("brute-force", 7)
	tb.AddRow("meeting-room", 0)
	tb.AddRow("float", 0.123456)
	s := tb.String()
	if !strings.Contains(s, "brute-force") || !strings.Contains(s, "drops") {
		t.Fatalf("table output missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(s, "0.1235") {
		t.Fatalf("float not trimmed to 4 significant digits:\n%s", s)
	}
}

// Property: Welford mean matches the naive mean.
func TestQuickWelfordMean(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			x := float64(r)
			w.Observe(x)
			sum += x
		}
		return math.Abs(w.Mean()-sum/float64(len(raw))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram preserves total counts.
func TestQuickHistogramTotal(t *testing.T) {
	f := func(raw []int16) bool {
		h, err := NewHistogram(-100, 100, 17)
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Observe(float64(r))
		}
		total := int64(0)
		for _, b := range h.bins {
			total += b
		}
		return total == int64(len(raw)) && h.n == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
