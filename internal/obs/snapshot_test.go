package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func snapWith(runs int, counters, gauges map[string]float64) *Snapshot {
	s := &Snapshot{Runs: runs}
	for name, v := range counters {
		s.Counters = append(s.Counters, series{Name: name, Value: v})
	}
	for name, v := range gauges {
		s.Gauges = append(s.Gauges, series{Name: name, Value: v})
	}
	s.sort()
	return s
}

func TestMergeCountersAndGauges(t *testing.T) {
	a := snapWith(1, map[string]float64{"c": 3}, map[string]float64{"g": 10, "only_a": 4})
	b := snapWith(1, map[string]float64{"c": 5, "only_b": 2}, map[string]float64{"g": 20})
	if err := a.merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Runs != 2 {
		t.Errorf("Runs = %d", a.Runs)
	}
	got := map[string]float64{}
	for _, c := range a.Counters {
		got[c.Name] = c.Value
	}
	if got["c"] != 8 || got["only_b"] != 2 {
		t.Errorf("counters = %v", got)
	}
	for _, g := range a.Gauges {
		got[g.Name] = g.Value
	}
	// Gauges average over Runs; a series missing on one side counts as 0
	// there.
	if got["g"] != 15 {
		t.Errorf("gauge g = %v, want 15", got["g"])
	}
	if got["only_a"] != 2 {
		t.Errorf("gauge only_a = %v, want 2", got["only_a"])
	}
}

func TestMergeAllThreeWayGaugeAverage(t *testing.T) {
	snaps := []*Snapshot{
		snapWith(1, nil, map[string]float64{"g": 3}),
		nil, // skipped replication
		snapWith(1, nil, map[string]float64{"g": 6}),
		snapWith(1, nil, map[string]float64{"g": 9}),
	}
	out, err := MergeAll(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs != 3 {
		t.Errorf("Runs = %d", out.Runs)
	}
	if v := out.Gauges[0].Value; math.Abs(v-6) > 1e-12 {
		t.Errorf("gauge = %v, want 6", v)
	}
	// MergeAll deep-copies: the first input must be untouched.
	if snaps[0].Gauges[0].Value != 3 || snaps[0].Runs != 1 {
		t.Errorf("MergeAll mutated its first input: %+v", snaps[0])
	}
}

func TestMergeHistogramsAndBoundMismatch(t *testing.T) {
	h := func(bounds []float64, counts []uint64, sum float64, n uint64) *Snapshot {
		return &Snapshot{Runs: 1, Histograms: []histSeries{{
			Name: "h", Bounds: bounds, Counts: counts, Sum: sum, Count: n,
		}}}
	}
	a := h([]float64{1, 2}, []uint64{1, 0, 2}, 7, 3)
	if err := a.merge(h([]float64{1, 2}, []uint64{0, 4, 1}, 9, 5)); err != nil {
		t.Fatal(err)
	}
	got := a.Histograms[0]
	if got.Count != 8 || got.Sum != 16 {
		t.Errorf("merged hist count=%d sum=%v", got.Count, got.Sum)
	}
	for i, want := range []uint64{1, 4, 3} {
		if got.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, got.Counts[i], want)
		}
	}
	if err := a.merge(h([]float64{1, 3}, []uint64{0, 0, 0}, 0, 0)); err == nil {
		t.Error("bound mismatch not rejected")
	}
	if err := a.merge(h([]float64{1}, []uint64{0, 0}, 0, 0)); err == nil {
		t.Error("bound count mismatch not rejected")
	}
}

func TestPrometheusRendering(t *testing.T) {
	s := &Snapshot{
		Runs:     1,
		Counters: []series{{Name: "armnet_x_total", Labels: map[string]string{"k": "v"}, Value: 3}},
		Histograms: []histSeries{{
			Name: "armnet_lat", Bounds: []float64{0.1, 0.5}, Counts: []uint64{2, 1, 1}, Sum: 0.9, Count: 4,
		}},
	}
	out := string(s.Prometheus())
	for _, want := range []string{
		"# TYPE armnet_x_total counter\n",
		`armnet_x_total{k="v"} 3` + "\n",
		"# TYPE armnet_lat histogram\n",
		`armnet_lat_bucket{le="0.1"} 2` + "\n",
		`armnet_lat_bucket{le="0.5"} 3` + "\n",
		`armnet_lat_bucket{le="+Inf"} 4` + "\n",
		"armnet_lat_sum 0.9\n",
		"armnet_lat_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTripsStably(t *testing.T) {
	s := snapWith(1, map[string]float64{"c": 1}, map[string]float64{"g": 0.125})
	if !bytes.Equal(s.JSON(), s.JSON()) {
		t.Fatal("JSON rendering unstable")
	}
	if !bytes.HasSuffix(s.JSON(), []byte("\n")) {
		t.Fatal("JSON missing trailing newline")
	}
}

func TestQuantile(t *testing.T) {
	h := histSeries{Bounds: []float64{1, 2, 4}, Counts: []uint64{2, 2, 0, 0}, Count: 4}
	if got := h.quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := h.quantile(1); got != 2 {
		t.Errorf("p100 = %v, want 2", got)
	}
	over := histSeries{Bounds: []float64{1}, Counts: []uint64{0, 3}, Count: 3}
	if got := over.quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want last bound", got)
	}
	if got := (histSeries{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestSummary(t *testing.T) {
	s := snapWith(1, map[string]float64{
		"armnet_connection_requests_total":  100,
		"armnet_connections_admitted_total": 90,
		"armnet_connections_blocked_total":  10,
		"armnet_handoff_attempts_total":     40,
		"armnet_handoffs_dropped_total":     2,
		"armnet_handoffs_predicted_total":   30,
		"armnet_adaptation_updates_total":   180,
	}, nil)
	sum := s.Summary()
	if sum.BlockRate != 0.1 {
		t.Errorf("BlockRate = %v", sum.BlockRate)
	}
	if sum.DropRate != 0.05 {
		t.Errorf("DropRate = %v", sum.DropRate)
	}
	if sum.Availability != 0.75 {
		t.Errorf("Availability = %v", sum.Availability)
	}
	if sum.MeanAdaptation != 2 {
		t.Errorf("MeanAdaptation = %v", sum.MeanAdaptation)
	}
	// Empty snapshot: no division by zero.
	zero := (&Snapshot{}).Summary()
	if zero.BlockRate != 0 || zero.DropRate != 0 || zero.MeanAdaptation != 0 {
		t.Errorf("zero summary = %+v", zero)
	}
}
