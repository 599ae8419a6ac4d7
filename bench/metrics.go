package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one row of the benchmark's glossary. BENCHMARK.json lists
// the same names, units, directions and bounds; TestManifestMatches keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; 0 for per-layer metrics.
	Bound float64
	// Source: "e" end to end (timed passes, tracing off), "c" exact count,
	// "s" span recorded by the driver, "p" probe of a public function.
	Source string
	Note   string
}

// endToEnd is every metric a timed (--trace 0) run reports, on every
// workload. What each one measures per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "e", "set-up time of one pass, median over passes"},
	{"portable_secs_per_s", "1/s", "higher", 0.25, "e", "portable-seconds carried per host second, median over passes"},
	{"ops_per_s", "1/s", "higher", 0.25, "e", "script steps completed per host second, median over passes"},
	{"allocs_per_op", "count", "lower", 0.10, "e", "heap allocations per script step"},
	{"alloc_kb_per_op", "kB", "lower", 0.25, "e", "heap kilobytes allocated per script step"},
	{"setup_rtt_ms_p50", "ms", "lower", 0.25, "e", "connection set-up latency, median"},
	{"carried_ratio", "ratio", "higher", 0.005, "e", "1 − (blocked + dropped) / (requests + handoff attempts), exact"},
}

// wireKinds are the frame kinds counted one by one.
var wireKinds = []string{"advertise", "update", "signal-setup", "signal-commit", "signal-abort"}

// perLayer is every metric a traced (--trace 1) run reports, on every
// workload; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"des.events_fired", "count", "lower", 0, "c", "simulator events fired in the traced pass"},
		{"des.max_pending", "count", "lower", 0, "c", "deepest event queue the driver saw"},
		{"des.event_ns", "ns", "lower", 0, "p", "Post + fire of one event at max_pending depth"},
		{"des.event_allocs", "count", "lower", 0, "p", "allocations per posted and fired event"},
		{"des.deferred_s", "s", "lower", 0, "s", "des.run_until self time: work done in deferred events, not inline in driver calls"},
		{"des.run_until_s", "s", "lower", 0, "s", "RunUntil to the horizon, all seeds of the traced pass"},
		{"eventbus.published", "count", "lower", 0, "c", "events published on the controller bus"},
		{"eventbus.adaptation_rounds", "count", "lower", 0, "c", "adaptation-round events"},
		{"eventbus.publish_ns", "ns", "lower", 0, "p", "Pub of a bandwidth-change on a manager's bus (built-in subscribers only)"},
		{"eventbus.record_ns", "ns", "lower", 0, "p", "Pub of an adaptation-round with the JSONL recorder attached"},
		{"eventbus.record_allocs", "count", "lower", 0, "p", "allocations per recorded event"},
		{"admission.decisions", "count", "lower", 0, "c", "admission-decision events"},
		{"admission.refused", "count", "lower", 0, "c", "admission decisions that refused"},
		{"admission.admit_ratio", "ratio", "higher", 0, "c", "admitted / decisions"},
		{"admission.read_ns", "ns", "lower", 0, "p", "SumMin + SumBuffer + ExcessAvailable on a link holding K connections"},
		{"admission.admit_ns", "ns", "lower", 0, "p", "Controller.Admit (and the Release that undoes it) over a 4-hop route, K connections per link"},
		{"admission.admit_allocs", "count", "lower", 0, "p", "allocations per Admit"},
		{"admission.book_release_ns", "ns", "lower", 0, "p", "Book on 4 links + Ledger.Release, K connections per link"},
		{"signal.sessions", "count", "lower", 0, "c", "signalling sessions started"},
		{"signal.aborts", "count", "lower", 0, "c", "signal-abort events"},
		{"signal.retransmits", "count", "lower", 0, "c", "control-retransmit events"},
		{"signal.setup_ns", "ns", "lower", 0, "p", "Plane.Setup to commit on the sim clock, 4 hops"},
		{"signal.setup_allocs", "count", "lower", 0, "p", "allocations per Plane.Setup"},
		{"signal.modelled_setup_ms", "ms", "lower", 0, "c", "median set-up latency of the same script in ModeSim: the floor of setup_rtt_ms"},
		{"signal.setup_rtt_ms_p90", "ms", "lower", 0, "c", "commit latency of OpSetup steps, 90th percentile"},
		{"signal.handoff_rtt_ms_p50", "ms", "lower", 0, "c", "commit latency of OpHandoff steps, median"},
		{"maxmin.rounds", "count", "lower", 0, "c", "ADVERTISE round trips"},
		{"maxmin.rounds_per_op", "count", "lower", 0, "c", "rounds / script steps"},
		{"maxmin.control_msgs", "count", "lower", 0, "c", "ADVERTISE + UPDATE hops the protocol counted"},
		{"maxmin.sessions", "count", "lower", 0, "c", "adaptation sessions started"},
		{"maxmin.converged", "count", "lower", 0, "c", "maxmin-converged events"},
		{"maxmin.round_ns", "ns", "lower", 0, "p", "host ns per round: fresh Protocol on the final problem, KickAll, run to quiescence"},
		{"maxmin.session_allocs", "count", "lower", 0, "p", "allocations per adaptation session in that probe"},
		{"maxmin.waterfill_ns", "ns", "lower", 0, "p", "WaterFill on the final problem"},
		{"maxmin.oracle_gap", "bit/s", "lower", 0, "c", "largest |protocol − WaterFill| rate after the quiescent tail (check c)"},
		{"adapt.register_ns", "ns", "lower", 0, "p", "Register + Unregister + SyncRoute of one static connection"},
		{"topology.shortest_path_ns", "ns", "lower", 0, "p", "ShortestPath, mean over every host→air pair of the campus"},
		{"mobility.moves", "count", "lower", 0, "c", "scripted steps generated"},
		{"mobility.gen_s", "s", "lower", 0, "s", "time generating the script (setup.mobility spans)"},
		{"core.handoff_us_p50", "us", "lower", 0, "s", "HandoffPortable call, median"},
		{"core.handoff_us_p99", "us", "lower", 0, "s", "HandoffPortable call, 99th percentile"},
		{"core.open_us_p50", "us", "lower", 0, "s", "OpenConnection call, median"},
		{"core.close_us_p50", "us", "lower", 0, "s", "CloseConnection call, median"},
		{"core.inline_s", "s", "lower", 0, "s", "time inside driver→core calls"},
		{"core.blocked", "count", "lower", 0, "c", "new connections refused"},
		{"core.dropped", "count", "lower", 0, "c", "connections dropped at handoff"},
		{"core.block_rate", "ratio", "lower", 0, "c", "blocked / requested (P_b)"},
		{"core.handoff_drop_rate", "ratio", "lower", 0, "c", "dropped / handoff attempts (P_d)"},
		{"reserve.advance_reservations", "count", "lower", 0, "c", "advance-reservation placements"},
		{"reserve.pool_claims", "count", "lower", 0, "c", "unpredicted handoffs claiming B_dyn"},
		{"predict.predicted_share", "ratio", "higher", 0, "c", "handoffs that found an advance reservation waiting"},
		{"obs.armed_overhead_pct", "%", "lower", 0, "s", "pass time with core.Config.Obs armed vs plain passes of the same run"},
		{"obs.trace_overhead_pct", "%", "lower", 0, "s", "pass time with a JSONL recorder attached vs plain"},
		{"wire.frames_total", "count", "lower", 0, "c", "payload frames delivered to nodes"},
		{"wire.frames_per_op", "count", "lower", 0, "c", "frames / script steps"},
		{"wire.bytes_per_frame", "B", "lower", 0, "c", "mean encoded frame size"},
	}
	for _, k := range wireKinds {
		m = append(m, metricDef{"wire.frames_by_kind." + k, "count", "lower", 0, "c", k + " frames"})
	}
	return append(m,
		metricDef{"wire.encode_ns", "ns", "lower", 0, "p", "AppendFrame, mean over the observed kind mix"},
		metricDef{"wire.decode_ns", "ns", "lower", 0, "p", "Decode, mean over the observed kind mix"},
		metricDef{"wire.allocs_per_frame", "count", "lower", 0, "p", "allocations per encode + decode"},
		metricDef{"testnet.node_handle_ns", "ns", "lower", 0, "p", "Node.HandleFrame to ack"},
		metricDef{"testnet.node_handle_allocs", "count", "lower", 0, "p", "allocations per HandleFrame"},
		metricDef{"testnet.udp_frame_rtt_us_p50", "us", "lower", 0, "p", "raw frame→ack against ServeNodeUDP on host loopback, median"},
		metricDef{"testnet.udp_frame_rtt_us_p99", "us", "lower", 0, "p", "same, 99th percentile"},
		metricDef{"testnet.frame_drops", "count", "lower", 0, "c", "frames never acked"},
		metricDef{"testnet.generator_lag_ms_p99", "ms", "lower", 0, "c", "how late a step started against its due time, 99th percentile"},
		metricDef{"testnet.commits", "count", "higher", 0, "c", "setups and handoffs committed"},
		metricDef{"testnet.aborted", "count", "lower", 0, "c", "setups and handoffs aborted"},
		metricDef{"testnet.skipped", "count", "lower", 0, "c", "script steps skipped under Lenient"},
		metricDef{"netfaults.wrap_overhead_pct", "%", "lower", 0, "s", "loopback pass time behind an empty netfaults plan vs plain"},
		metricDef{"clock.wall_timer_lag_us_p50", "us", "lower", 0, "p", "clock.NewWall().After lateness, median"},
		metricDef{"trace.overhead_pct", "%", "lower", 0, "s", "traced pass vs median timed pass"},
	)
}()

// printGlossary lists every metric by name with its unit.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "end-to-end metrics (timed passes, --trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-6s bound %-5g %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Note)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run, --trace 1; source c=count s=span p=probe):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %-6s [%s] %s\n", m.Name, m.Unit, m.Better, m.Source, m.Note)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns a name→value map into the reported set, insisting that
// it holds exactly the defined metrics.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undefined metrics measured: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// printMetrics writes one line per metric, in glossary order.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
}
