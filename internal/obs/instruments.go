package obs

import (
	"strings"

	"armnet/internal/sortx"
)

// The instrument model is deliberately small and allocation-conscious:
// three kinds (counter, gauge, fixed-bucket histogram), each identified
// by a name plus an optional label set. Hot-path callers hold instrument
// pointers; the registry's map lookup happens once per (name, labels)
// pair. Everything is sim-time and single-threaded — the observer runs
// inside the deterministic event loop, so there are no atomics and no
// wall-clock reads anywhere.

// seriesKey renders the canonical identity of a series: the name alone,
// or name{k1="v1",k2="v2"} with keys sorted. The rendered key doubles as
// the Prometheus sample line prefix and as the deterministic sort key of
// every export.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range sortx.Keys(labels) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// counter is a monotone sum. The live plane's wire recorders
// (internal/testnet) build on the same instrument model through
// Registry and share the Snapshot/Merge/Prometheus machinery.
type counter struct {
	name   string
	labels map[string]string
	v      float64
}

// Add increases the counter by d.
func (c *counter) Add(d float64) { c.v += d }

// Inc increases the counter by one.
func (c *counter) Inc() { c.v++ }

// gauge is a point-in-time value.
type gauge struct {
	name   string
	labels map[string]string
	v      float64
}

// set replaces the gauge's value.
func (g *gauge) set(v float64) { g.v = v }

// Histogram is a fixed-boundary histogram: bounds are upper bucket edges
// in ascending order, counts has len(bounds)+1 entries (the last is the
// overflow bucket). Fixed boundaries are what make cross-replication
// merges well-defined.
type Histogram struct {
	name   string
	labels map[string]string
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry owns every instrument of one observer. Lookups create on
// first use, so only series that actually fired appear in snapshots
// (with the fixed core set pre-registered by the observer so the
// snapshot shape is stable across runs of the same scenario family).
type Registry struct {
	counters map[string]*counter
	gauges   map[string]*gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counter),
		gauges:   make(map[string]*gauge),
		hists:    make(map[string]*Histogram),
	}
}

func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// Counter returns (creating on first use) the counter for (name, labels).
func (r *Registry) Counter(name string, labels map[string]string) *counter {
	k := seriesKey(name, labels)
	c := r.counters[k]
	if c == nil {
		c = &counter{name: name, labels: copyLabels(labels)}
		r.counters[k] = c
	}
	return c
}

// gauge returns (creating on first use) the gauge for (name, labels).
func (r *Registry) gauge(name string, labels map[string]string) *gauge {
	k := seriesKey(name, labels)
	g := r.gauges[k]
	if g == nil {
		g = &gauge{name: name, labels: copyLabels(labels)}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the fixed-bucket histogram
// for (name, labels). Callers must pass identical bounds on every lookup
// of the same series.
func (r *Registry) Histogram(name string, labels map[string]string, bounds []float64) *Histogram {
	k := seriesKey(name, labels)
	h := r.hists[k]
	if h == nil {
		h = &Histogram{
			name:   name,
			labels: copyLabels(labels),
			bounds: bounds,
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[k] = h
	}
	return h
}
