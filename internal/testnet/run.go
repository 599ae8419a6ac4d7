package testnet

import (
	"fmt"
	"net"
	"sort"
	"time"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/faults"
	"armnet/internal/maxmin"
	"armnet/internal/obs"
	"armnet/internal/qos"
	"armnet/internal/signal"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// Config parameterizes a scenario run.
type Config struct {
	Mode mode
	// Script is the timed step list (nil → CampusScript).
	Script []Step
	// Horizon is the settle time before the final audit (≤0 →
	// defaultHorizon). In ModeUDP this is wall-clock seconds.
	Horizon float64
	// Peers maps agent name → "host:port" (ModeUDP only).
	Peers map[string]string
	// Faults, when non-nil, interposes the wire chaos layer between
	// the protocols and the transport (live modes only; ModeSim has no
	// wire to break). An empty plan still wraps — proving the wrapped
	// empty path behaviour-identical is itself a test target.
	Faults *faults.Plan
	// faultSeed salts the injector's RNG.
	faultSeed int64
	// lease arms wire hold-lease renewal (see leaseConfig).
	lease leaseConfig
	// readvertise, when positive, arms the maxmin periodic repair sweep
	// — required for convergence when fault injection can eat UPDATE
	// frames.
	readvertise float64
	// Lenient makes handoff/close of an unknown connection a counted
	// no-op instead of a harness error. Fault plans legitimately create
	// such races: a lease reclaim can tear a connection down before the
	// script's own close reaches it.
	Lenient bool
	// Obs, when non-nil, arms the live observability layer: the recorder
	// is fed from the transport/lease/fault hook seams and can be scraped
	// concurrently by a telemetry server while the run is in flight. Nil
	// costs one pointer check per hook site (pinned zero-perturbation by
	// TestLiveObsZeroCost).
	Obs *WireRecorder
	// hooks are timed callbacks with access to the runner — the soak
	// harness uses them for epoch plan swaps, scripted node faults, and
	// mid-run audits. Same-time hooks fire in slice order, after any
	// script step sharing the instant.
	hooks []soakHook
}

// soakHook is one timed runner callback (see Config.hooks).
type soakHook struct {
	at float64
	fn func(*runner)
}

// Result reports one scenario run.
type Result struct {
	Mode mode
	// ControllerTrace is the controller bus JSONL — the live-vs-sim diff
	// target.
	ControllerTrace []byte
	// NodeTraces holds each in-process agent's JSONL trace (nil for
	// ModeSim; nil for ModeUDP, where node processes own their traces).
	NodeTraces map[string][]byte
	// FramesSent counts payload frames the transport delivered;
	// FrameDrops counts unacked sends.
	FramesSent, FrameDrops int
	// Commits and Aborted count scenario setups by outcome; Sessions and
	// Rollbacks mirror the plane's counters.
	Commits, Aborted, Sessions, Rollbacks int
	// Rates is the final committed maxmin allocation.
	Rates map[string]float64
	// Live lists connections still admitted at the end, sorted.
	Live []string
	// Violations aggregates auditor findings and harness faults; empty on
	// a clean run.
	Violations []string
	// Faults reports the chaos layer's counters (nil when no fault layer
	// was configured).
	Faults *faultStats
	// SkippedOps counts script operations ignored under Lenient.
	SkippedOps int
	// LiveSnapshot is the merged cluster view (controller + in-process
	// node recorders) when Config.Obs was armed; nil otherwise.
	LiveSnapshot *obs.Snapshot
	// LiveSpans is the wire-span JSONL when Config.Obs was armed.
	LiveSpans []byte
}

// faultStats aggregates what the chaos layer actually did to a run.
type faultStats struct {
	// Drops/Dups/Delays/Reorders count injector rule firings.
	Drops, Dups, Delays, Reorders int
	// PartitionDrops counts frames eaten by down agents; Crashes and
	// Restarts count node lifecycle transitions.
	PartitionDrops, Crashes, Restarts int
	// LeaseReclaims counts connections reclaimed by lease expiry.
	LeaseReclaims int
}

// connRec is the harness's one record per connection: the route it was
// last set up on (where its abort frames go, and the route it holds once
// live) and its reserve b_min, which its setup and commit frames carry
// and Resync frames and lease renewals replay. A record outlives its
// connection, so a frame still in flight after a close finds it.
type connRec struct {
	route   topology.Route
	reserve float64
	// live marks a committed connection not yet handed off, closed or
	// reclaimed.
	live bool
}

// connTable maps connection IDs to their records.
type connTable map[string]*connRec

// reserve returns the connection's reserve (zero if unknown).
func (t connTable) reserve(conn string) float64 {
	if rec := t[conn]; rec != nil {
		return rec.reserve
	}
	return 0
}

// abortLink returns the link a rollback sweep's frame is addressed to:
// the failed hop's link, or the last link when the failure was past the
// route (the destination test, a lost commit confirmation).
func (t connTable) abortLink(conn string, hop int) (string, bool) {
	rec := t[conn]
	if rec == nil || len(rec.route.Links) == 0 {
		return "", false
	}
	links := rec.route.Links
	return string(links[max(0, min(hop, len(links)-1))].ID), true
}

// runner owns one scenario's control plane.
type runner struct {
	cfg     Config
	env     *topology.Environment
	cluster *clusterNet
	conns   connTable
	clk     clock.Clock
	lg      *admission.Ledger
	plane   *signal.Plane
	proto   *maxmin.Protocol
	tr      transport
	faulty  *faultyTransport
	lease   *leaseManager
	bus     *eventbus.Bus
	nodes   []*Node // loopback agents, by index in cluster.Names
	nodeObs []*NodeRecorder

	// mmLinks is each link the rate protocol knows, with the index its
	// AddLink gave it.
	mmLinks map[topology.LinkID]int
	commits int
	aborted int
	skipped int
	errs    []string
}

func (r *runner) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// Run executes the scenario in the configured mode and returns its
// result. ModeSim and ModeLoopback are deterministic; ModeUDP blocks for
// the wall-clock horizon.
func Run(cfg Config) (*Result, error) {
	if cfg.Script == nil {
		cfg.Script = CampusScript()
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = defaultHorizon
	}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}

	var sim *des.Simulator
	var wall *clock.Wall
	var clk clock.Clock
	if cfg.Mode == ModeUDP {
		wall = clock.NewWall()
		clk = wall
	} else {
		sim = des.New()
		clk = clock.Sim(sim)
	}

	cfg.Obs.setClock(clk.Now)
	cluster := NewCluster(env)
	if err := cluster.checkPlan(cfg.Faults); err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg, env: env, clk: clk,
		cluster: cluster,
		conns:   make(connTable),
		mmLinks: make(map[topology.LinkID]int),
	}

	switch cfg.Mode {
	case ModeLoopback:
		r.nodes = make([]*Node, 0, len(r.cluster.Names))
		for _, name := range r.cluster.Names {
			n := NewNode(name, clk)
			if cfg.Obs != nil {
				nr := NewNodeRecorder(name)
				n.SetObs(nr)
				r.nodeObs = append(r.nodeObs, nr)
			}
			r.nodes = append(r.nodes, n)
		}
		lt := newLoopback(r.cluster, r.conns, r.nodes)
		lt.obs = cfg.Obs
		r.tr = lt
	case ModeUDP:
		tr, err := dialUDP(r.cluster, r.conns, cfg.Peers)
		if err != nil {
			return nil, err
		}
		tr.obs = cfg.Obs
		r.tr = tr
	}

	if cfg.Faults != nil && r.tr != nil {
		r.faulty = newFaulty(r.tr, cfg.Faults, cfg.faultSeed, clk, r.cluster, r.nodes)
		r.faulty.obs = cfg.Obs
		r.tr = r.faulty
		for _, f := range cfg.Faults.Events() {
			clk.PostAfter(f.At, func() { r.faulty.apply(f) })
		}
	}

	bus := eventbus.New(clk)
	r.bus = bus
	var trace eventbus.TraceBuffer
	rec := eventbus.AttachRecorder(bus, &trace)
	cfg.Obs.attach(bus)

	r.lg = admission.NewLedger(env.Backbone)
	ctl := admission.NewController(r.lg)
	ctl.Bus = bus

	sigOpts := signal.Options{Bus: bus}
	mmOpts := maxmin.ProtocolOptions{Refined: true, ReadvertisePeriod: cfg.readvertise}
	if r.tr != nil {
		sigOpts.Deliver = r.tr.SignalDeliver
		mmOpts.Deliver = r.tr.MaxminDeliver
		// Rollback sweeps release holds locally in the plane; mirror them
		// to the fabric so node agents observe aborts too.
		bus.Subscribe(func(rec eventbus.Record) {
			ev := rec.Event.(eventbus.SignalAbort)
			if link, ok := r.conns.abortLink(ev.Conn, ev.Hop); ok {
				r.tr.Abort(ev.Conn, ev.Hop, link, ev.Reason)
			}
		}, eventbus.KindSignalAbort)
	}
	r.plane = signal.NewPlaneOn(clk, ctl, r.lg, sigOpts)
	r.proto = maxmin.NewProtocolOn(clk, mmOpts)
	r.proto.Bus = bus

	// Lease TTL doubles as the resync grant after a crash restart; with
	// the lease machinery off, grant the whole horizon so a resynced
	// mirror never decays mid-run.
	resyncTTL := cfg.Horizon
	if cfg.lease.Period > 0 {
		resyncTTL = cfg.lease.ttl()
		r.lease = newLeaseManager(cfg.lease, r)
		clk.Every(cfg.lease.Period, r.lease.tick)
	}
	if r.faulty != nil {
		r.faulty.onRestart = func(agent string) { r.resyncAgent(agent, resyncTTL) }
	}

	if r.tr != nil {
		if err := r.tr.Hello(); err != nil {
			return nil, err
		}
	}

	for _, st := range cfg.Script {
		st := st
		clk.PostAfter(st.At, func() { r.exec(st) })
	}
	for _, h := range cfg.hooks {
		h := h
		clk.PostAfter(h.at, func() { h.fn(r) })
	}

	if cfg.Mode == ModeUDP {
		done := make(chan struct{})
		clk.After(cfg.Horizon, func() { close(done) })
		watchdog := time.NewTimer(time.Duration((cfg.Horizon + 30) * float64(time.Second)))
		defer watchdog.Stop()
		select {
		case <-done:
		case <-watchdog.C:
			wall.Stop()
			return nil, fmt.Errorf("testnet: wall-clock horizon never fired")
		}
		var res *Result
		wall.Run(func() {
			res = r.collect(rec, &trace)
			// No timer left over from the run may fire into the
			// transport Shutdown closes, or append to r after the audit.
			wall.Stop()
		})
		wall.Stop() // outside the critical section: waits out the dispatcher
		r.tr.Shutdown()
		return res, nil
	}

	if err := sim.RunUntil(cfg.Horizon); err != nil {
		return nil, err
	}
	res := r.collect(rec, &trace)
	if r.tr != nil {
		r.tr.Shutdown()
		res.FramesSent = r.tr.Sent() // include the shutdown frames
		res.NodeTraces = make(map[string][]byte, len(r.nodes))
		for _, n := range r.nodes {
			nt, err := n.Trace()
			if err != nil {
				return nil, fmt.Errorf("testnet: %s trace: %w", n.Name, err)
			}
			res.NodeTraces[n.Name] = nt
		}
	}
	return res, nil
}

// exec runs one scenario step (on the scenario clock, so under the wall
// lock in live mode).
func (r *runner) exec(st Step) {
	switch st.Op {
	case OpSetup:
		r.setup(st, admission.KindNew)
	case OpHandoff:
		r.handoff(st)
	case OpClose:
		r.close(st.Conn)
	case OpCapacity:
		r.capacity(st)
	default:
		r.failf("unknown op %d", st.Op)
	}
}

func (r *runner) setup(st Step, kind admission.Kind) {
	if len(r.env.Hosts) == 0 {
		r.failf("no wired hosts")
		return
	}
	host := r.env.Hosts[st.Host%len(r.env.Hosts)]
	route, err := r.env.Backbone.ShortestPath(host, topology.AirNode(st.Cell))
	if err != nil {
		r.failf("route %s→%s: %v", host, st.Cell, err)
		return
	}
	rec := r.conns[st.Conn]
	if rec == nil {
		rec = &connRec{}
		r.conns[st.Conn] = rec
	}
	rec.route, rec.reserve = route, st.Min
	test := admission.Test{
		ConnID: st.Conn,
		Req: qos.Request{
			Bandwidth: qos.Bounds{Min: st.Min, Max: st.Max},
			Delay:     5, Jitter: 5, Loss: 0.05,
			Traffic: qos.TrafficSpec{Sigma: 16e3, Rho: st.Min},
		},
		Route: route, Kind: kind, Mobility: qos.Mobile,
	}
	r.plane.Setup(test, func(res signal.Result) {
		if res.Err != nil {
			r.aborted++
			return
		}
		rec.live = true
		r.commits++
		r.joinMaxmin(st.Conn, route, st.Max-st.Min)
	})
}

// joinMaxmin registers a committed connection's excess demand with the
// rate protocol and kicks an adaptation session. The scenario treats the
// full link capacity as the shareable pool (no adaptation manager sits
// between the ledger and the protocol here); the water-filling oracle in
// the final audit uses the same capacities, so the convergence check is
// self-consistent.
func (r *runner) joinMaxmin(conn string, route topology.Route, demand float64) {
	if demand <= 0 {
		return
	}
	path := make([]string, 0, len(route.Links))
	for _, l := range route.Links {
		path = append(path, string(l.ID))
		if _, ok := r.mmLinks[l.ID]; !ok {
			ls := r.lg.Link(l.ID)
			cap := l.Capacity
			if ls != nil {
				cap = ls.Capacity
			}
			if err := r.proto.AddLink(string(l.ID), cap); err != nil {
				r.failf("maxmin link %s: %v", l.ID, err)
				return
			}
			r.mmLinks[l.ID] = len(r.mmLinks)
		}
	}
	if err := r.proto.AddConn(maxmin.Conn{ID: conn, Path: path, Demand: demand}); err != nil {
		r.failf("maxmin conn %s: %v", conn, err)
		return
	}
	r.proto.Kick(conn)
}

// handoff re-homes a live connection: break-before-make, releasing the
// old path before the handoff admission test runs on the new one.
func (r *runner) handoff(st Step) {
	rec := r.conns[st.Conn]
	if rec == nil || !rec.live {
		if r.cfg.Lenient {
			r.skipped++
			return
		}
		r.failf("handoff of unknown conn %s", st.Conn)
		return
	}
	r.cfg.Obs.handoffBreak(st.Conn, string(rec.route.Dest()), string(topology.AirNode(st.Cell)))
	r.lg.Release(st.Conn, rec.route)
	r.proto.RemoveConn(st.Conn)
	rec.live = false
	r.proto.KickAll()
	r.setup(st, admission.KindHandoff)
}

func (r *runner) close(conn string) {
	rec := r.conns[conn]
	if rec == nil || !rec.live {
		if r.cfg.Lenient {
			r.skipped++
			return
		}
		r.failf("close of unknown conn %s", conn)
		return
	}
	r.lg.Release(conn, rec.route)
	r.proto.RemoveConn(conn)
	rec.live = false
	r.proto.KickAll()
}

// capacity drops (or raises) a cell's wireless capacity in the ledger
// and tells the rate protocol, which re-advertises affected connections.
func (r *runner) capacity(st Step) {
	cell := r.env.Universe.Cell(st.Cell)
	if cell == nil {
		r.failf("capacity change for unknown cell %s", st.Cell)
		return
	}
	id := topology.LinkID(string(cell.BaseStation) + "->" + string(topology.AirNode(st.Cell)))
	if err := r.lg.SetCapacity(id, st.Capacity); err != nil {
		r.failf("set capacity %s: %v", id, err)
		return
	}
	if i, ok := r.mmLinks[id]; ok {
		if _, err := r.proto.TriggerCapacityChange(i, st.Capacity); err != nil {
			r.failf("trigger capacity %s: %v", id, err)
		}
	}
}

// auditor is the fault oracle of the final and the per-epoch audits:
// zero pending holds, ledger conservation, live-set consistency and
// WaterFill convergence.
func (r *runner) auditor() *faults.Auditor {
	return &faults.Auditor{
		Ledger:         r.lg,
		PendingHolds:   r.plane.PendingTotal,
		LiveConns:      r.liveConns,
		ConvergenceGap: r.proto.OracleGap,
		GapTol:         1e-6,
	}
}

// collect runs the final audit and assembles the result.
func (r *runner) collect(rec *eventbus.Recorder, trace *eventbus.TraceBuffer) *Result {
	viol := append([]string(nil), r.auditor().CheckFinal()...)
	viol = append(viol, r.errs...)
	if r.tr != nil {
		viol = append(viol, r.tr.Errs()...)
	}
	if err := rec.Err(); err != nil {
		viol = append(viol, fmt.Sprintf("controller-trace: %v", err))
	}
	res := &Result{
		Mode:            r.cfg.Mode,
		ControllerTrace: trace.Bytes(),
		Commits:         r.commits,
		Aborted:         r.aborted,
		Sessions:        r.plane.Sessions,
		Rollbacks:       r.plane.Rollbacks,
		Rates:           r.proto.Rates(),
		Live:            r.liveConns(),
		Violations:      viol,
	}
	if r.tr != nil {
		res.FramesSent = r.tr.Sent()
		res.FrameDrops = r.tr.Drops()
	}
	res.SkippedOps = r.skipped
	if r.cfg.Obs != nil {
		r.cfg.Obs.finish(r.clk.Now())
		snap, err := ClusterSnapshot(r.cfg.Obs, r.nodeObs)
		if err != nil {
			viol = append(viol, fmt.Sprintf("live-obs: %v", err))
			res.Violations = viol
		}
		res.LiveSnapshot = snap
		res.LiveSpans = r.cfg.Obs.SpansJSONL()
	}
	if r.faulty != nil {
		fs := &faultStats{
			PartitionDrops: r.faulty.PartitionDrops,
			Crashes:        r.faulty.Crashes,
			Restarts:       r.faulty.Restarts,
		}
		fs.Drops, fs.Dups, fs.Delays, fs.Reorders = r.faulty.stats()
		if r.lease != nil {
			fs.LeaseReclaims = r.lease.Reclaims
		}
		res.Faults = fs
	}
	return res
}

func (r *runner) liveConns() []string {
	out := []string{}
	for id, rec := range r.conns {
		if rec.live {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// connsVia lists the live connections with at least one route link owned
// by the agent, sorted for deterministic frame order.
func (r *runner) connsVia(agent string) []string {
	i, ok := r.cluster.index(agent)
	if !ok {
		return nil
	}
	var out []string
	for conn, rec := range r.conns {
		if !rec.live {
			continue
		}
		for _, l := range rec.route.Links {
			if r.cluster.agent(string(l.ID)) == i {
				out = append(out, conn)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// resyncAgent runs the controller side of the re-LISTEN handshake with
// an agent that restarted or healed: re-hello, then replay every live
// reservation crossing its links as Resync frames.
func (r *runner) resyncAgent(agent string, ttl float64) {
	r.cfg.Obs.resync(agent)
	r.tr.Control(agent, wire.Hello{Node: agent})
	for _, conn := range r.connsVia(agent) {
		r.tr.Control(agent, wire.Resync{
			Conn: conn, Bandwidth: r.conns.reserve(conn), TTL: ttl,
		})
	}
}

// ServeNodeUDP is the node-process entry: bind, serve until Shutdown,
// return the trace. Exported for cmd/armnode and the in-process UDP
// test.
func ServeNodeUDP(name string, pc *net.UDPConn) (*Node, error) {
	n := NewNode(name, clock.NewWall())
	if err := n.ServeUDP(pc); err != nil {
		return n, err
	}
	return n, nil
}
