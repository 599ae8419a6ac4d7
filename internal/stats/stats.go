// Package stats provides the measurement primitives the experiments use:
// time-weighted averages (for utilization), online moment
// accumulators, fixed-bin histograms, and a small fixed-width table
// printer for regenerating the paper's result rows, and the exact
// accumulator (Sum) every float total over a set goes through.
//
// A product added to a sum is written float64(x*y) + z: the conversion is
// the language's fusion barrier, so arm64, ppc64le and the other targets
// that fuse a multiply-add round exactly as amd64 does (make fma-check).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Welford accumulates mean and variance online.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (zero when empty).
func (w *Welford) Mean() float64 { return w.mean }

// variance returns the unbiased sample variance (zero for n < 2).
func (w *Welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.variance()) }

// Min returns the smallest sample (zero when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (zero when empty).
func (w *Welford) Max() float64 { return w.max }

// TimeWeighted integrates a piecewise-constant signal over simulated time,
// e.g. link utilization or number of active connections.
type TimeWeighted struct {
	last     float64 // last set value
	lastTime float64
	area     float64
	started  bool
	start    float64
}

// Set records the signal value at time t.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.start = t
	} else if t > tw.lastTime {
		tw.area += float64(tw.last * (t - tw.lastTime))
	}
	tw.last = v
	tw.lastTime = t
}

// Mean returns the time-weighted mean over [start, t].
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started || t <= tw.start {
		return 0
	}
	area := tw.area
	if t > tw.lastTime {
		area += float64(tw.last * (t - tw.lastTime))
	}
	return area / (t - tw.start)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); out-of-range
// samples land in the first/last bin.
type Histogram struct {
	Lo, Hi float64
	bins   []int64
	n      int64
}

// NewHistogram returns a histogram with the given bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram bounds inverted [%v, %v)", lo, hi)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bins, got %d", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, bins)}, nil
}

// Observe adds one sample.
func (h *Histogram) Observe(x float64) {
	i := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.n++
}

// binCenter returns the midpoint value of bin i.
func (h *Histogram) binCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return h.Lo + float64(w*(float64(i)+0.5))
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from bins.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return h.Lo
	}
	target := int64(q * float64(h.n))
	acc := int64(0)
	for i, c := range h.bins {
		acc += c
		if acc > target {
			return h.binCenter(i)
		}
	}
	return h.Hi
}

// Table renders aligned rows for terminal output of experiment results.
type Table struct {
	Header []string
	rows   [][]string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if t.Header != nil {
		measure(t.Header)
	}
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", width[i]-len(c)))
		}
		b.WriteString("\n")
	}
	if t.Header != nil {
		writeRow(t.Header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
