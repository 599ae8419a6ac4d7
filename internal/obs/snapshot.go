package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"armnet/internal/sortx"
)

// series is one exported counter or gauge sample.
type series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// histSeries is one exported fixed-bucket histogram. Bounds are the
// upper bucket edges; Counts has len(Bounds)+1 entries, the last being
// the overflow (+Inf) bucket, so the implicit +Inf edge never has to be
// JSON-encoded.
type histSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds"`
	Counts []uint64          `json:"counts"`
	Sum    float64           `json:"sum"`
	Count  uint64            `json:"count"`
}

// Snapshot is a deterministic point-in-time export of every instrument:
// series are sorted by (name, labels), floats render with Go's shortest
// representation, and all payloads are structs — so both renderings are
// byte-comparable across runs and worker counts. Runs counts how many
// replications were merged into it (1 for a fresh snapshot); Merge uses
// it to average gauges.
type Snapshot struct {
	Runs       int          `json:"runs"`
	Counters   []series     `json:"counters"`
	Gauges     []series     `json:"gauges"`
	Histograms []histSeries `json:"histograms"`
}

// snapshot exports the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Runs: 1}
	for _, k := range sortx.Keys(r.counters) {
		c := r.counters[k]
		s.Counters = append(s.Counters, series{Name: c.name, Labels: copyLabels(c.labels), Value: c.v})
	}
	for _, k := range sortx.Keys(r.gauges) {
		g := r.gauges[k]
		s.Gauges = append(s.Gauges, series{Name: g.name, Labels: copyLabels(g.labels), Value: g.v})
	}
	for _, k := range sortx.Keys(r.hists) {
		h := r.hists[k]
		s.Histograms = append(s.Histograms, histSeries{
			Name:   h.name,
			Labels: copyLabels(h.labels),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		})
	}
	return s
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promLine renders one sample line: key (name or name{labels}) value.
func promLine(b *strings.Builder, key string, v float64) {
	b.WriteString(key)
	b.WriteByte(' ')
	b.WriteString(fmtFloat(v))
	b.WriteByte('\n')
}

// promKey renders a sample key with an extra label appended (for
// histogram le labels).
func promKey(name string, labels map[string]string, extraK, extraV string) string {
	merged := copyLabels(labels)
	if merged == nil {
		merged = map[string]string{}
	}
	merged[extraK] = extraV
	return seriesKey(name, merged)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: series order is the
// snapshot's sorted order and floats use the shortest representation.
func (s *Snapshot) Prometheus() []byte {
	var b strings.Builder
	typed := map[string]bool{}
	writeType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, c := range s.Counters {
		writeType(c.Name, "counter")
		promLine(&b, seriesKey(c.Name, c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		writeType(g.Name, "gauge")
		promLine(&b, seriesKey(g.Name, g.Labels), g.Value)
	}
	for _, h := range s.Histograms {
		writeType(h.Name, "histogram")
		cum := uint64(0)
		for i, ub := range h.Bounds {
			cum += h.Counts[i]
			promLine(&b, promKey(h.Name+"_bucket", h.Labels, "le", fmtFloat(ub)), float64(cum))
		}
		promLine(&b, promKey(h.Name+"_bucket", h.Labels, "le", "+Inf"), float64(h.Count))
		promLine(&b, seriesKey(h.Name+"_sum", h.Labels), h.Sum)
		promLine(&b, seriesKey(h.Name+"_count", h.Labels), float64(h.Count))
	}
	return []byte(b.String())
}

// JSON renders the snapshot as indented JSON with a trailing newline.
// Struct marshaling fixes the field order and Go sorts map keys, so the
// bytes are deterministic.
func (s *Snapshot) JSON() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only plain data types; Marshal cannot fail.
		panic(err)
	}
	return append(data, '\n')
}

// mergeHist folds b into a. The bucket boundaries must match exactly —
// fixed bounds are the merge contract.
func mergeHist(a *histSeries, b histSeries) error {
	if len(a.Bounds) != len(b.Bounds) {
		return fmt.Errorf("obs: histogram %s: bound count mismatch (%d vs %d)",
			seriesKey(a.Name, a.Labels), len(a.Bounds), len(b.Bounds))
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return fmt.Errorf("obs: histogram %s: bound %d mismatch (%v vs %v)",
				seriesKey(a.Name, a.Labels), i, a.Bounds[i], b.Bounds[i])
		}
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Sum += b.Sum
	a.Count += b.Count
	return nil
}

// merge folds another snapshot into this one: counters and histogram
// buckets sum, gauges average weighted by each side's Runs (a series
// missing on one side contributes zero with that side's weight). Always
// merge in replication order — float sums are order-sensitive, and the
// in-order fold is what keeps merged snapshots identical at any worker
// count.
func (s *Snapshot) merge(o *Snapshot) error {
	if o == nil {
		return nil
	}
	sr, or := float64(s.Runs), float64(o.Runs)
	total := sr + or

	ctrs := map[string]int{}
	for i, c := range s.Counters {
		ctrs[seriesKey(c.Name, c.Labels)] = i
	}
	for _, c := range o.Counters {
		if i, ok := ctrs[seriesKey(c.Name, c.Labels)]; ok {
			s.Counters[i].Value += c.Value
		} else {
			s.Counters = append(s.Counters, c)
		}
	}

	gs := map[string]int{}
	for i, g := range s.Gauges {
		gs[seriesKey(g.Name, g.Labels)] = i
		s.Gauges[i].Value = g.Value * sr / total
	}
	for _, g := range o.Gauges {
		if i, ok := gs[seriesKey(g.Name, g.Labels)]; ok {
			s.Gauges[i].Value += g.Value * or / total
		} else {
			g.Value = g.Value * or / total
			s.Gauges = append(s.Gauges, g)
		}
	}

	hs := map[string]int{}
	for i, h := range s.Histograms {
		hs[seriesKey(h.Name, h.Labels)] = i
	}
	for _, h := range o.Histograms {
		if i, ok := hs[seriesKey(h.Name, h.Labels)]; ok {
			if err := mergeHist(&s.Histograms[i], h); err != nil {
				return err
			}
		} else {
			h.Bounds = append([]float64(nil), h.Bounds...)
			h.Counts = append([]uint64(nil), h.Counts...)
			s.Histograms = append(s.Histograms, h)
		}
	}

	s.Runs += o.Runs
	s.sort()
	return nil
}

func (s *Snapshot) sort() {
	byKey := func(sl []series) func(i, j int) bool {
		return func(i, j int) bool {
			return seriesKey(sl[i].Name, sl[i].Labels) < seriesKey(sl[j].Name, sl[j].Labels)
		}
	}
	sortSlice(s.Counters, byKey(s.Counters))
	sortSlice(s.Gauges, byKey(s.Gauges))
	sortSlice(s.Histograms, func(i, j int) bool {
		return seriesKey(s.Histograms[i].Name, s.Histograms[i].Labels) <
			seriesKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// sortSlice is a tiny insertion sort — export slices are short and this
// avoids importing sort for a []T with a closure comparator twice.
func sortSlice[T any](sl []T, less func(i, j int) bool) {
	for i := 1; i < len(sl); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			sl[j], sl[j-1] = sl[j-1], sl[j]
		}
	}
}

// MergeAll folds the snapshots in slice order (replication order) into a
// fresh snapshot; nil entries are skipped. Returns nil when nothing
// merged.
func MergeAll(snaps []*Snapshot) (*Snapshot, error) {
	var out *Snapshot
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		if out == nil {
			// Deep-copy through the JSON rendering's value semantics.
			cp := *sn
			cp.Counters = append([]series(nil), sn.Counters...)
			cp.Gauges = append([]series(nil), sn.Gauges...)
			cp.Histograms = make([]histSeries, len(sn.Histograms))
			for i, h := range sn.Histograms {
				h.Bounds = append([]float64(nil), h.Bounds...)
				h.Counts = append([]uint64(nil), h.Counts...)
				cp.Histograms[i] = h
			}
			out = &cp
			continue
		}
		if err := out.merge(sn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CounterTotal sums every counter series with the given name across its
// label variants (e.g. armnet_wire_frames_tx_total over all frame
// kinds). Zero when no series with that name exists.
func (s *Snapshot) CounterTotal(name string) float64 { return s.counterValue(name) }

// counterValue sums every counter series with the given name.
func (s *Snapshot) counterValue(name string) float64 {
	total := 0.0
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// histMerged returns the bucket-wise sum of every histogram series with
// the given name (e.g. both predicted and unpredicted interruption
// series), or false when none exists.
func (s *Snapshot) histMerged(name string) (histSeries, bool) {
	var out histSeries
	found := false
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		if !found {
			out = h
			out.Bounds = append([]float64(nil), h.Bounds...)
			out.Counts = append([]uint64(nil), h.Counts...)
			out.Labels = nil
			found = true
			continue
		}
		_ = mergeHist(&out, h)
	}
	return out, found
}

// quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// with linear interpolation inside the winning bucket; samples in the
// overflow bucket report the last bound. Zero when empty.
func (h histSeries) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := float64(q * float64(h.Count))
	cum := uint64(0)
	for i, ub := range h.Bounds {
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		next := cum + h.Counts[i]
		if float64(next) >= target {
			if h.Counts[i] == 0 {
				return ub
			}
			frac := (target - float64(cum)) / float64(h.Counts[i])
			return lo + float64(frac*(ub-lo))
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Summary is the paper-§7-style digest of a snapshot: distribution-level
// outcomes of the run (or of the merged replications).
type Summary struct {
	// Requests/Admitted/Blocked are new-connection counts.
	Requests, Admitted, Blocked float64
	// Handoffs is attempted per-connection handoffs; Dropped the failures;
	// Predicted those arriving to a waiting advance reservation.
	Handoffs, Dropped, Predicted float64
	// BlockRate is Blocked/Requests; DropRate is Dropped/Handoffs.
	BlockRate, DropRate float64
	// Availability is the fraction of handoffs that found bandwidth
	// already reserved in the target cell (Predicted/Handoffs) — the
	// paper's "bandwidth availability on handoff".
	Availability float64
	// MeanAdaptation is committed rate changes per admitted connection.
	MeanAdaptation float64
	// Setup latency quantiles in seconds (zero when no signaled setups).
	SetupP50, SetupP99 float64
	// Handoff interruption quantiles in seconds, over all handoffs.
	InterruptP50, InterruptP99 float64
}

// Summary digests the snapshot's counters and histograms.
func (s *Snapshot) Summary() Summary {
	sum := Summary{
		Requests:  s.counterValue("armnet_connection_requests_total"),
		Admitted:  s.counterValue("armnet_connections_admitted_total"),
		Blocked:   s.counterValue("armnet_connections_blocked_total"),
		Handoffs:  s.counterValue("armnet_handoff_attempts_total"),
		Dropped:   s.counterValue("armnet_handoffs_dropped_total"),
		Predicted: s.counterValue("armnet_handoffs_predicted_total"),
	}
	if sum.Requests > 0 {
		sum.BlockRate = sum.Blocked / sum.Requests
	}
	if sum.Handoffs > 0 {
		sum.DropRate = sum.Dropped / sum.Handoffs
		sum.Availability = sum.Predicted / sum.Handoffs
	}
	if sum.Admitted > 0 {
		sum.MeanAdaptation = s.counterValue("armnet_adaptation_updates_total") / sum.Admitted
	}
	if h, ok := s.histMerged("armnet_setup_latency_seconds"); ok && h.Count > 0 {
		sum.SetupP50, sum.SetupP99 = h.quantile(0.50), h.quantile(0.99)
	}
	if h, ok := s.histMerged("armnet_handoff_interruption_seconds"); ok && h.Count > 0 {
		sum.InterruptP50, sum.InterruptP99 = h.quantile(0.50), h.quantile(0.99)
	}
	return sum
}
