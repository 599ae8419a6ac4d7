package testnet

import (
	"armnet/internal/clock"
	"armnet/internal/faults"
	"armnet/internal/netfaults"
	"armnet/internal/obs/live"
	"armnet/internal/wire"
)

// faultyTransport is the chaos layer: it wraps a real transport
// (loopback or UDP alike) and applies a netfaults plan at the frame
// boundary — per-link drop/dup/delay/reorder verdicts plus node
// partitions and crashes — while the protocol code and the inner fabric
// stay untouched. An empty injector makes every method a straight
// delegation with no random draws, so wrapping with an empty plan is
// behaviour-preserving (the zero-cost contract the loopback gate pins).
//
// Partition and crash state lives here, not in the plan: the harness
// posts the plan's timed events (faults.Plan.Events) on the scenario
// clock and apply executes each at its scripted instant.
type faultyTransport struct {
	inner   transport
	inj     *netfaults.Injector
	clk     clock.Clock
	routing *routeTable
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
	obs *live.Controller

	// PartitionDrops counts frames eaten by down agents; Crashes and
	// Restarts count node lifecycle transitions the layer executed.
	PartitionDrops, Crashes, Restarts int
	// acc accumulates injector counters across setPlan swaps, so epoch
	// rotation does not lose the earlier epochs' firings.
	acc [4]int
}

func newFaulty(inner transport, plan *netfaults.Plan, seed int64, clk clock.Clock, routing *routeTable, cluster *clusterNet, nodes []*Node) *faultyTransport {
	return &faultyTransport{
		inner: inner, inj: netfaults.NewInjector(plan, seed),
		clk: clk, routing: routing, cluster: cluster, nodes: nodes,
		down: make(map[string]bool),
	}
}

// setPlan swaps the active fault plan (soak epochs rotate plans); nil
// disables injection while keeping partition/crash state. The outgoing
// injector's counters are folded into the running totals.
func (t *faultyTransport) setPlan(plan *netfaults.Plan, seed int64) {
	t.acc[0], t.acc[1], t.acc[2], t.acc[3] = t.stats()
	t.inj = netfaults.NewInjector(plan, seed)
}

// stats returns the cumulative injector firings — across every plan the
// layer has run, including the live one.
func (t *faultyTransport) stats() (drops, dups, delays, reorders int) {
	return t.acc[0] + t.inj.Drops, t.acc[1] + t.inj.Dups, t.acc[2] + t.inj.Delays, t.acc[3] + t.inj.Reorders
}

// partition makes an agent unreachable without losing its state.
func (t *faultyTransport) partition(agent string) { t.down[agent] = true }

// heal restores reachability after a partition.
func (t *faultyTransport) heal(agent string) { delete(t.down, agent) }

// crash takes an agent down and wipes its volatile state.
func (t *faultyTransport) crash(agent string) {
	t.down[agent] = true
	t.Crashes++
	t.obs.Verdict("crash")
	if i, ok := t.cluster.index(agent); ok && i < len(t.nodes) {
		t.nodes[i].restart() // state is lost at the crash; the process slot stays
	}
}

// restart brings a crashed agent back and runs the controller-side
// re-LISTEN handshake.
func (t *faultyTransport) restart(agent string) {
	delete(t.down, agent)
	t.Restarts++
	t.obs.Verdict("restart")
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

// deliver applies the fault pipeline to one hop-addressed frame: the
// partition check first (a down agent eats the frame), then the
// injector verdict — drop wins outright; a reorder detaches the frame
// onto the clock so later frames overtake it; dup and delay compose
// with normal delivery.
func (t *faultyTransport) deliver(proto, link, agent string, fwd func() (bool, float64)) (bool, float64) {
	if t.down[agent] {
		t.PartitionDrops++
		t.obs.Verdict("partition")
		return true, 0
	}
	v := t.inj.Frame(proto, link)
	if v.Drop {
		t.obs.Verdict("drop")
		return true, 0
	}
	if v.Delay > 0 {
		t.obs.Verdict("delay")
	}
	if v.Reorder > 0 {
		t.obs.Verdict("reorder")
		t.clk.PostAfter(v.Reorder, func() {
			if t.down[agent] {
				t.PartitionDrops++
				t.obs.Verdict("partition")
				return
			}
			fwd()
		})
		return false, v.Delay
	}
	drop, delay := fwd()
	if v.Dup && !drop {
		t.obs.Verdict("dup")
		fwd()
	}
	return drop, delay + v.Delay
}

func (t *faultyTransport) SignalDeliver(conn string, hop int) (bool, float64) {
	h, ok := t.routing.peekSignal(conn, hop)
	if !ok {
		// Unroutable: let the inner transport resolve (and count) it.
		return t.inner.SignalDeliver(conn, hop)
	}
	return t.deliver("signal", string(h.link), t.cluster.Names[h.agent], func() (bool, float64) {
		return t.inner.SignalDeliver(conn, hop)
	})
}

func (t *faultyTransport) MaxminDeliver(conn string, hop int, update bool) (bool, float64) {
	h, ok := t.routing.peekMaxmin(conn, hop, update)
	if !ok {
		return t.inner.MaxminDeliver(conn, hop, update)
	}
	return t.deliver("maxmin", string(h.link), t.cluster.Names[h.agent], func() (bool, float64) {
		return t.inner.MaxminDeliver(conn, hop, update)
	})
}

func (t *faultyTransport) Abort(conn string, hop int, reason string) {
	// Abort mirroring is void (rollback already happened controller-side)
	// so only the loss faults apply: a down agent or a drop verdict eats
	// the frame, everything else delivers.
	h, ok := t.routing.peekSignal(conn, hop)
	if ok {
		if t.down[t.cluster.Names[h.agent]] {
			t.PartitionDrops++
			t.obs.Verdict("partition")
			return
		}
		if t.inj.Frame("signal", string(h.link)).Drop {
			t.obs.Verdict("drop")
			return
		}
	}
	t.inner.Abort(conn, hop, reason)
}

// Control frames (lease renewals, resync, re-hello) are exempt from the
// probabilistic rules — they are the recovery channel the faults are
// supposed to exercise — but a down agent still eats them: that is
// exactly how the controller detects death.
func (t *faultyTransport) Control(agent string, m wire.Message) bool {
	if t.down[agent] {
		t.PartitionDrops++
		t.obs.Verdict("partition")
		return false
	}
	return t.inner.Control(agent, m)
}

func (t *faultyTransport) Hello() error   { return t.inner.Hello() }
func (t *faultyTransport) Shutdown()      { t.inner.Shutdown() }
func (t *faultyTransport) Sent() int      { return t.inner.Sent() }
func (t *faultyTransport) Drops() int     { return t.inner.Drops() }
func (t *faultyTransport) Errs() []string { return t.inner.Errs() }
