// Package dataplane gives the control plane a packet-level data path: it
// instantiates one scheduler-driven link server per backbone link,
// forwards packets hop by hop along each connection's route, injects
// wireless loss, and measures per-connection end-to-end delay and loss —
// the empirical check that the admission tests of Table 2 actually
// deliver what they promise.
//
// Sources are (σ, ρ)-conforming on/off generators matching the traffic
// envelope a connection declared, so a measured delay above the Table 2
// bound is a bug, not a workload artifact.
package dataplane

import (
	"fmt"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/sched"
	"armnet/internal/sortx"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// Options configures a Dataplane.
type Options struct {
	// Discipline selects the scheduler on every link (WFQ default).
	Discipline sched.Discipline
	// PacketSize is the source packet size in bits (default 8192 — the
	// admission's default).
	PacketSize float64
	// Seed drives loss draws and source jitter. Every int64 is a valid,
	// distinct seed — including 0, the zero-value default.
	Seed int64
	// Bus, when non-nil, receives FlowStarted / FlowStopped events.
	Bus *eventbus.Bus
}

func (o Options) withDefaults() Options {
	if o.PacketSize <= 0 {
		o.PacketSize = 8192
	}
	return o
}

// FlowStats accumulates one connection's end-to-end measurements.
type FlowStats struct {
	Delay     stats.Welford
	Sent      int64
	Delivered int64
	Lost      int64
	// hist collects delivered delays for quantile estimation; created
	// lazily on first delivery with a 0–1 s range at millisecond bins.
	hist *stats.Histogram
}

// DelayQuantile estimates the q-quantile of delivered end-to-end delay
// (q in [0,1]); it returns 0 before any delivery.
func (f *FlowStats) DelayQuantile(q float64) float64 {
	if f.hist == nil {
		return 0
	}
	return f.hist.Quantile(q)
}

func (f *FlowStats) observeDelay(d float64) {
	f.Delivered++
	f.Delay.Observe(d)
	if f.hist == nil {
		f.hist, _ = stats.NewHistogram(0, 1, 1000)
	}
	f.hist.Observe(d)
}

// LossRate returns the measured end-to-end loss fraction.
func (f *FlowStats) LossRate() float64 {
	if f.Sent == 0 {
		return 0
	}
	return float64(f.Lost) / float64(f.Sent)
}

// Jitter returns the observed end-to-end delay variation (max − min
// delivered delay) — the quantity Table 2's jitter row bounds.
func (f *FlowStats) Jitter() float64 {
	if f.Delay.N() == 0 {
		return 0
	}
	return f.Delay.Max() - f.Delay.Min()
}

// flow is one active connection on the data path.
type flow struct {
	id     string
	route  topology.Route
	rate   float64 // reserved service rate per hop
	spec   qos.TrafficSpec
	stats  *FlowStats
	ticker *des.Ticker
}

// Dataplane owns the per-link servers and active flows.
type Dataplane struct {
	Sim  *des.Simulator
	opts Options
	rng  *randx.Rand

	servers map[topology.LinkID]*sched.LinkServer
	links   map[topology.LinkID]*topology.Link
	flows   map[string]*flow
	// nextHop[link][flow] is the follow-on link, "" at the last hop.
	nextHop map[topology.LinkID]map[string]topology.LinkID
}

// New builds a dataplane over a backbone: every link gets a scheduler of
// the configured discipline and a transmission server at link speed.
func New(sim *des.Simulator, b *topology.Backbone, opts Options) (*Dataplane, error) {
	opts = opts.withDefaults()
	dp := &Dataplane{
		Sim:     sim,
		opts:    opts,
		rng:     randx.New(opts.Seed),
		servers: make(map[topology.LinkID]*sched.LinkServer),
		links:   make(map[topology.LinkID]*topology.Link),
		flows:   make(map[string]*flow),
		nextHop: make(map[topology.LinkID]map[string]topology.LinkID),
	}
	for _, l := range b.Links() {
		var s sched.Scheduler
		var err error
		switch opts.Discipline {
		case sched.DisciplineRCSP:
			s, err = sched.NewRCSP(2)
		default:
			s, err = sched.NewWFQ(l.Capacity)
		}
		if err != nil {
			return nil, err
		}
		ls, err := sched.NewLinkServer(sim, s, l.Capacity)
		if err != nil {
			return nil, err
		}
		dp.servers[l.ID] = ls
		dp.links[l.ID] = l
		dp.nextHop[l.ID] = make(map[string]topology.LinkID)
		link := l
		ls.OnDepart = func(p sched.Packet, at float64) { dp.onDepart(link, p, at) }
	}
	return dp, nil
}

// onDepart moves a transmitted packet to the next hop (after the link's
// propagation delay) or records delivery at the sink.
func (dp *Dataplane) onDepart(l *topology.Link, p sched.Packet, at float64) {
	f, ok := dp.flows[p.Flow]
	if !ok {
		return // flow stopped while in flight
	}
	if dp.rng.Bernoulli(l.LossProb) {
		f.stats.Lost++
		return
	}
	next := dp.nextHop[l.ID][p.Flow]
	if next == "" {
		f.stats.observeDelay(at - p.Arrival + l.PropDelay)
		return
	}
	arrival := p.Arrival
	dp.Sim.PostAfter(l.PropDelay, func() {
		srv, ok := dp.servers[next]
		if !ok {
			return
		}
		// Preserve the original arrival time so the sink measures true
		// end-to-end delay.
		if err := srv.Sched.Enqueue(sched.Packet{Flow: p.Flow, Size: p.Size, Arrival: arrival}, dp.Sim.Now()); err == nil {
			srv.Kick()
		}
	})
}

// StartFlow registers a connection on every hop with its reserved rate
// and starts a (σ, ρ)-conforming source: an initial burst of σ bits, then
// packets at rate ρ.
func (dp *Dataplane) StartFlow(id string, route topology.Route, rate float64, spec qos.TrafficSpec) error {
	if _, ok := dp.flows[id]; ok {
		return fmt.Errorf("dataplane: duplicate flow %s", id)
	}
	if len(route.Links) == 0 {
		return fmt.Errorf("dataplane: empty route for %s", id)
	}
	if rate <= 0 {
		return fmt.Errorf("dataplane: non-positive rate for %s", id)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	for i, l := range route.Links {
		srv, ok := dp.servers[l.ID]
		if !ok {
			return fmt.Errorf("dataplane: route uses unknown link %s", l.ID)
		}
		if err := srv.Sched.AddFlow(id, rate); err != nil {
			// Roll back the hops already registered.
			for _, rl := range route.Links[:i] {
				dp.servers[rl.ID].Sched.RemoveFlow(id)
			}
			return err
		}
	}
	f := &flow{id: id, route: route, rate: rate, spec: spec, stats: &FlowStats{}}
	dp.flows[id] = f
	for i, l := range route.Links {
		next := topology.LinkID("")
		if i+1 < len(route.Links) {
			next = route.Links[i+1].ID
		}
		dp.nextHop[l.ID][id] = next
	}
	eventbus.Pub(dp.opts.Bus, eventbus.FlowStarted{Conn: id, Rate: rate})
	// Source: emit the burst now, then steady packets at ρ.
	first := route.Links[0].ID
	size := dp.opts.PacketSize
	submit := func() {
		f.stats.Sent++
		_ = dp.servers[first].Submit(id, size)
	}
	for sent := 0.0; sent+size <= f.spec.Sigma; sent += size {
		submit()
	}
	period := size / f.spec.Rho
	f.ticker = dp.Sim.Every(period, submit)
	return nil
}

// StopFlow removes a flow from every hop and stops its source. Stats
// remain readable.
func (dp *Dataplane) StopFlow(id string) {
	f, ok := dp.flows[id]
	if !ok {
		return
	}
	if f.ticker != nil {
		f.ticker.Cancel()
	}
	for _, l := range f.route.Links {
		if srv, ok := dp.servers[l.ID]; ok {
			srv.Sched.RemoveFlow(id)
		}
		delete(dp.nextHop[l.ID], id)
	}
	delete(dp.flows, id)
	eventbus.Pub(dp.opts.Bus, eventbus.FlowStopped{
		Conn: id, Sent: int(f.stats.Sent),
		Delivered: int(f.stats.Delivered), Lost: int(f.stats.Lost),
	})
}

// Stats returns the flow's measurements, or nil for unknown flows
// (including stopped ones — snapshot before stopping).
func (dp *Dataplane) Stats(id string) *FlowStats {
	f, ok := dp.flows[id]
	if !ok {
		return nil
	}
	return f.stats
}

// Flows lists active flow IDs, sorted.
func (dp *Dataplane) Flows() []string { return sortx.Keys(dp.flows) }
