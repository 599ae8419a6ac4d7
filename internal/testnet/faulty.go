package testnet

import (
	"armnet/internal/clock"
	"armnet/internal/faults"
	"armnet/internal/wire"
)

// faultyTransport is the chaos layer, the wire plane's front-end to
// internal/faults: it wraps a real transport (loopback or UDP alike) and
// applies a wire plan at the frame boundary — per-link
// drop/dup/delay/reorder verdicts from a faults.Walker, the same rule
// walk the simulated plane's Injector runs, plus node partitions and
// crashes — while the protocol code and the inner fabric stay untouched.
// An empty plan makes every method a straight delegation with no random
// draws, so wrapping with an empty plan is behaviour-preserving (the
// zero-cost contract the loopback gate pins).
//
// The loopback fabric is single-threaded on the simulator clock, so
// identical (plan, seed) pairs inject identically there; on the
// wall-clock UDP path calls are serialized by the wall lock but their
// order is scheduling-dependent, so UDP injection is
// random-but-unreproducible by design.
//
// Partition and crash state lives here, not in the plan: the harness
// posts the plan's timed events (faults.Plan.Events) on the scenario
// clock and apply executes each at its scripted instant.
type faultyTransport struct {
	inner transport
	// walk carries the Drops, Dups, Delays and Reorders counters of the
	// live plan.
	walk    faults.Walker
	clk     clock.Clock
	cluster *clusterNet
	// nodes lets a crash wipe the in-process agent's volatile state, by
	// agent index (nil under UDP, where the node process owns its own
	// lifecycle).
	nodes []*Node
	// down marks agents currently unreachable (partitioned or crashed);
	// frames to them vanish without an ack.
	down map[string]bool
	// onRestart, when set, runs after a crashed agent comes back — the
	// controller's re-LISTEN handshake (hello + state resync).
	onRestart func(agent string)
	// obs, when armed, counts every verdict by family; nil costs one
	// pointer check per firing (not per frame — clean frames skip it).
	obs *WireRecorder

	// PartitionDrops counts frames eaten by down agents; Crashes and
	// Restarts count node lifecycle transitions the layer executed.
	PartitionDrops, Crashes, Restarts int
	// acc accumulates walker counters across setPlan swaps, so epoch
	// rotation does not lose the earlier epochs' firings.
	acc [4]int
}

// wireSalt decorrelates the wire plane's RNG from the simulation fault
// injector and the workload streams derived from the same master seed.
const wireSalt = 0x6e657466 // "netf"

func newFaulty(inner transport, plan *faults.Plan, seed int64, clk clock.Clock, cluster *clusterNet, nodes []*Node) *faultyTransport {
	return &faultyTransport{
		inner: inner, walk: faults.NewWalker(plan, seed^wireSalt),
		clk: clk, cluster: cluster, nodes: nodes,
		down: make(map[string]bool),
	}
}

// setPlan swaps the active fault plan (soak epochs rotate plans); nil
// disables injection while keeping partition/crash state. The outgoing
// walker's counters are folded into the running totals.
func (t *faultyTransport) setPlan(plan *faults.Plan, seed int64) {
	t.acc[0], t.acc[1], t.acc[2], t.acc[3] = t.stats()
	t.walk = faults.NewWalker(plan, seed^wireSalt)
}

// stats returns the cumulative rule firings — across every plan the
// layer has run, including the live one.
func (t *faultyTransport) stats() (drops, dups, delays, reorders int) {
	return t.acc[0] + t.walk.Drops, t.acc[1] + t.walk.Dups, t.acc[2] + t.walk.Delays, t.acc[3] + t.walk.Reorders
}

// partition makes an agent unreachable without losing its state.
func (t *faultyTransport) partition(agent string) { t.down[agent] = true }

// heal restores reachability after a partition.
func (t *faultyTransport) heal(agent string) { delete(t.down, agent) }

// crash takes an agent down and wipes its volatile state.
func (t *faultyTransport) crash(agent string) {
	t.down[agent] = true
	t.Crashes++
	t.obs.verdict("crash")
	if i, ok := t.cluster.index(agent); ok && i < len(t.nodes) {
		t.nodes[i].restart() // state is lost at the crash; the process slot stays
	}
}

// restart brings a crashed agent back and runs the controller-side
// re-LISTEN handshake.
func (t *faultyTransport) restart(agent string) {
	delete(t.down, agent)
	t.Restarts++
	t.obs.verdict("restart")
	if t.onRestart != nil {
		t.onRestart(agent)
	}
}

// apply executes one timed node fault or restoration of a wire plan.
func (t *faultyTransport) apply(f faults.Timed) {
	switch f.Action {
	case "partition":
		t.partition(f.Target)
	case "heal":
		t.heal(f.Target)
	case "crash":
		t.crash(f.Target)
	case "restart":
		t.restart(f.Target)
	}
}

// deliver applies the fault pipeline to one frame crossing link: the
// partition check of the link's agent first (a down agent eats the
// frame), then the walk's verdict — drop wins outright; a reorder
// detaches the frame onto the clock so later frames overtake it; dup and
// delay compose with normal delivery. Control frames (hello, lease
// renewals, resyncs) never come here, so the probabilistic rules spare
// them.
func (t *faultyTransport) deliver(proto, link string, fwd func() (bool, float64)) (bool, float64) {
	agent := t.cluster.Names[t.cluster.agent(link)]
	if t.down[agent] {
		t.PartitionDrops++
		t.obs.verdict("partition")
		return true, 0
	}
	v := t.walk.Walk(proto, link, nil)
	if v.Drop {
		t.obs.verdict("drop")
		return true, 0
	}
	if v.Delay > 0 {
		t.obs.verdict("delay")
	}
	if v.Reorder > 0 {
		t.obs.verdict("reorder")
		t.clk.PostAfter(v.Reorder, func() {
			if t.down[agent] {
				t.PartitionDrops++
				t.obs.verdict("partition")
				return
			}
			fwd()
		})
		return false, v.Delay
	}
	drop, delay := fwd()
	if v.Dup && !drop {
		t.obs.verdict("dup")
		fwd()
	}
	return drop, delay + v.Delay
}

func (t *faultyTransport) SignalDeliver(conn string, hop int, link string, commit bool) (bool, float64) {
	return t.deliver("signal", link, func() (bool, float64) {
		return t.inner.SignalDeliver(conn, hop, link, commit)
	})
}

func (t *faultyTransport) MaxminDeliver(conn string, hop int, link string, update bool) (bool, float64) {
	return t.deliver("maxmin", link, func() (bool, float64) {
		return t.inner.MaxminDeliver(conn, hop, link, update)
	})
}

func (t *faultyTransport) Abort(conn string, hop int, link, reason string) {
	// Abort mirroring is void (rollback already happened controller-side)
	// so only the loss faults apply: a down agent or a drop verdict eats
	// the frame, everything else delivers.
	if t.down[t.cluster.Names[t.cluster.agent(link)]] {
		t.PartitionDrops++
		t.obs.verdict("partition")
		return
	}
	if t.walk.Walk("signal", link, nil).Drop {
		t.obs.verdict("drop")
		return
	}
	t.inner.Abort(conn, hop, link, reason)
}

// Control frames (lease renewals, resync, re-hello) are exempt from the
// probabilistic rules — they are the recovery channel the faults are
// supposed to exercise — but a down agent still eats them: that is
// exactly how the controller detects death.
func (t *faultyTransport) Control(agent string, m wire.Message) bool {
	if t.down[agent] {
		t.PartitionDrops++
		t.obs.verdict("partition")
		return false
	}
	return t.inner.Control(agent, m)
}

func (t *faultyTransport) Hello() error   { return t.inner.Hello() }
func (t *faultyTransport) Shutdown()      { t.inner.Shutdown() }
func (t *faultyTransport) Sent() int      { return t.inner.Sent() }
func (t *faultyTransport) Drops() int     { return t.inner.Drops() }
func (t *faultyTransport) Errs() []string { return t.inner.Errs() }
