package strategy

import (
	"fmt"
	"math"
	"slices"

	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/sortx"
)

func init() {
	RegisterAllocator("erica", NewErica)
	RegisterAllocator("logweight", NewLogWeight)
}

// NewErica builds the ERICA-style fair-share allocator (after Fahmy &
// Jain's ABR switch scheme). Where the paper's maxmin protocol needs
// four ADVERTISE round trips before an UPDATE commits, ERICA stamps a
// single explicit-rate sweep: each switch offers
//
//	μ_l(i) = max(C_l / N_l, C_l − Σ_{j≠i} recorded_j)
//
// — the larger of the equal fair share and the capacity left over by
// everyone else — and the source commits min(demand, min_l μ_l(i)) after
// one out-and-back pass. Convergence takes more cascaded sessions than
// maxmin's synchronized rounds (rates transiently overshoot before
// neighbors record them), but each session costs a quarter of the
// control packets; the arena quantifies that trade.
//
// It is the explicit-rate skeleton with unit weight: C·1/Σ1 is C/N
// bit for bit.
func NewErica(sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator {
	return newExplicitRate("erica", func(float64) float64 { return 1 }, sim, opts)
}

// NewLogWeight builds the logarithmic-weight proportional-sharing
// allocator (after Robert & Véber's log-weighted bandwidth sharing).
// It runs the same single explicit-rate round trip but replaces the
// equal fair share with a weighted one: every connection carries the
// weight
//
//	w_c = 1 + log(1 + demand_c)
//
// and each switch offers
//
//	μ_l(c) = max(C_l · w_c / Σ_j w_j, C_l − Σ_{j≠c} recorded_j)
//
// — the larger of the *log-weighted* share and the capacity left over
// by everyone else. The logarithm bounds the favoritism: a connection
// demanding 10× the bandwidth earns only a slightly larger floor, so
// saturated links split capacity nearly evenly while still tilting
// toward heavy flows. On a saturated link whose sharers are all
// demand-uncapped the fixed point is exactly the weighted proportional
// split C_l · w_c / Σ_j w_j; the arena quantifies how that compares to
// max-min and ERICA on blocking, adaptation, and overhead.
func NewLogWeight(sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator {
	return newExplicitRate("logweight", logWeight, sim, opts)
}

// logWeight is the Robert–Véber weight: 1 + log(1 + demand). The +1
// floor keeps zero-demand connections schedulable and the log keeps the
// spread between light and heavy flows bounded.
func logWeight(demand float64) float64 { return 1 + math.Log1p(demand) }

// newExplicitRate builds the shared explicit-rate allocator: one
// out-and-back sweep per session, then an UPDATE. The only policy is
// weight, the share of a saturated link a connection of the given
// demand is guaranteed; name is the registry name and labels errors and
// retransmit events.
//
// It honors the shared ProtocolOptions knobs: HopDelay, Delta (the
// eq. 2 trigger threshold and kick tolerance), the Deliver fault hook
// with MaxRetries/RetryBase retransmission, and the periodic
// ReadvertisePeriod repair loop. RoundTrips and Refined are ignored —
// one round trip, no M(l) sets.
func newExplicitRate(name string, weight func(demand float64) float64, sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator {
	if opts.HopDelay <= 0 {
		opts.HopDelay = 1e-3
	}
	if opts.Delta < 0 {
		opts.Delta = 0
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 20 * opts.HopDelay
	}
	a := &rateAllocator{
		name:   name,
		weight: weight,
		sim:    sim,
		opts:   opts,
		links:  make(map[string]*rateLink),
		conns:  make(map[string]*rateConn),
		active: make(map[string]bool),
		dirty:  make(map[string]bool),
	}
	if opts.ReadvertisePeriod > 0 {
		sim.Every(opts.ReadvertisePeriod, a.readvertise)
	}
	return a
}

type rateAllocator struct {
	name     string
	weight   func(demand float64) float64
	sim      *des.Simulator
	opts     maxmin.ProtocolOptions
	bus      *eventbus.Bus
	onUpdate func(conn string, rate float64)

	links map[string]*rateLink
	conns map[string]*rateConn

	messages, sessions, retransmits, readvertises int

	active map[string]bool // per-connection session in flight
	dirty  map[string]bool // session requested while one was active
}

// rateLink is one switch's table of the connections on a link, in
// ascending ID order — the order offer has always summed them in.
type rateLink struct {
	capacity float64
	ids      sortx.IDs[string]
	// recorded is the last stamped rate the switch saw per connection,
	// parallel to ids.
	recorded []float64
}

// rate returns the connection's recorded rate, 0 when it is not on the
// link.
func (l *rateLink) rate(id string) float64 {
	if i, ok := l.ids.Find(id); ok {
		return l.recorded[i]
	}
	return 0
}

// record sets the recorded rate of a connection on the link.
func (l *rateLink) record(id string, rate float64) {
	if i, ok := l.ids.Find(id); ok {
		l.recorded[i] = rate
	}
}

type rateConn struct {
	id     string
	path   []string
	demand float64
	weight float64
	rate   float64
}

// offer is the explicit rate for one connection at one switch:
// max(weighted share, capacity minus everyone else's recorded load),
// clamped non-negative. The table's ID order keeps the float sums
// stable run to run.
func (a *rateAllocator) offer(l *rateLink, conn string) float64 {
	if len(l.ids) == 0 {
		return l.capacity
	}
	others, wsum, w := 0.0, 0.0, 0.0
	for i, id := range l.ids {
		wc := a.conns[id].weight
		wsum += wc
		if id == conn {
			w = wc
		} else {
			others += l.recorded[i]
		}
	}
	mu := l.capacity - others
	if share := l.capacity * w / wsum; share > mu {
		mu = share
	}
	if mu < 0 {
		mu = 0
	}
	return mu
}

func (a *rateAllocator) Name() string { return a.name }

func (a *rateAllocator) AddLink(name string, capacity float64) error {
	if _, ok := a.links[name]; ok {
		return fmt.Errorf("%s: duplicate link %s", a.name, name)
	}
	if capacity < 0 {
		return fmt.Errorf("%w: %s = %v", maxmin.ErrBadCapacity, name, capacity)
	}
	a.links[name] = &rateLink{capacity: capacity}
	return nil
}

func (a *rateAllocator) AddSession(s Session) error {
	if _, ok := a.conns[s.ID]; ok {
		return fmt.Errorf("%w: %s", maxmin.ErrDuplicateConn, s.ID)
	}
	if len(s.Path) == 0 {
		return fmt.Errorf("%w: %s", maxmin.ErrEmptyPath, s.ID)
	}
	for _, l := range s.Path {
		if _, ok := a.links[l]; !ok {
			return fmt.Errorf("%w: %s uses %s", maxmin.ErrUnknownLink, s.ID, l)
		}
	}
	if s.Demand < 0 {
		return fmt.Errorf("%w: %s", maxmin.ErrBadDemand, s.ID)
	}
	c := &rateConn{id: s.ID, path: dedupPath(s.Path), demand: s.Demand, weight: a.weight(s.Demand)}
	a.conns[s.ID] = c
	for _, name := range c.path {
		l := a.links[name]
		if i, added := l.ids.Insert(s.ID); added {
			l.recorded = slices.Insert(l.recorded, i, 0)
		}
	}
	return nil
}

func (a *rateAllocator) RemoveSession(id string) {
	c, ok := a.conns[id]
	if !ok {
		return
	}
	for _, name := range c.path {
		l := a.links[name]
		if i, ok := l.ids.Remove(id); ok {
			l.recorded = slices.Delete(l.recorded, i, i+1)
		}
	}
	delete(a.conns, id)
	delete(a.active, id)
	delete(a.dirty, id)
}

func (a *rateAllocator) Kick(id string) bool { return a.startSession(id) }

// CapacityChanged applies the eq. (2) trigger: decreases always adapt,
// increases only above δ. There are no bottleneck sets, so the switch
// kicks every connection whose committed rate drifted from its current
// explicit-rate offer.
func (a *rateAllocator) CapacityChanged(link string, capacity float64) (int, error) {
	l, ok := a.links[link]
	if !ok {
		return 0, fmt.Errorf("%w: %s", maxmin.ErrUnknownLink, link)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("%w: %s = %v", maxmin.ErrBadCapacity, link, capacity)
	}
	old := l.capacity
	if capacity > old && capacity-old <= a.opts.Delta {
		return 0, nil
	}
	l.capacity = capacity
	started := 0
	for _, id := range l.ids {
		if a.drifted(a.conns[id]) && a.startSession(id) {
			started++
		}
	}
	return started, nil
}

func (a *rateAllocator) Rates() map[string]float64 {
	out := make(map[string]float64, len(a.conns))
	for id, c := range a.conns {
		out[id] = c.rate
	}
	return out
}

func (a *rateAllocator) Bottlenecks() []LinkBottleneck { return nil }

func (a *rateAllocator) Stats() ControlStats {
	return ControlStats{
		Messages:     a.messages,
		Sessions:     a.sessions,
		Retransmits:  a.retransmits,
		Readvertises: a.readvertises,
	}
}

func (a *rateAllocator) SetOnUpdate(fn func(conn string, rate float64)) { a.onUpdate = fn }

func (a *rateAllocator) SetBus(bus *eventbus.Bus) { a.bus = bus }

func (a *rateAllocator) tol() float64 {
	if a.opts.Delta > 0 {
		return a.opts.Delta
	}
	return 1e-9
}

// fairOffer is the rate a fresh sweep would stamp for the connection
// right now: min(demand, min_l μ_l(conn)).
func (a *rateAllocator) fairOffer(c *rateConn) float64 {
	offer := c.demand
	for _, l := range c.path {
		if mu := a.offer(a.links[l], c.id); mu < offer {
			offer = mu
		}
	}
	return offer
}

// drifted reports whether the connection's committed rate deviates from
// its current offer beyond tolerance — the kick criterion shared by the
// cascade, the capacity trigger, and the periodic repair loop.
func (a *rateAllocator) drifted(c *rateConn) bool {
	if c == nil {
		return false
	}
	if math.Abs(a.fairOffer(c)-c.rate) > a.tol() {
		return true
	}
	// A lost sweep can strand a stale recorded rate mid-path even when
	// the end-to-end offer already matches the committed rate.
	for _, l := range c.path {
		if math.Abs(a.links[l].rate(c.id)-c.rate) > a.tol() {
			return true
		}
	}
	return false
}

// readvertise is the periodic repair loop: kick every quiescent
// connection that drifted from its offer (the recovery path for
// sessions lost to control-plane faults).
func (a *rateAllocator) readvertise() {
	kicked := 0
	for _, id := range sortx.Keys(a.conns) {
		if a.active[id] {
			continue
		}
		if a.drifted(a.conns[id]) && a.startSession(id) {
			kicked++
		}
	}
	if kicked > 0 {
		a.readvertises += kicked
		eventbus.Pub(a.bus, eventbus.Readvertise{Kicked: kicked})
	}
}

func (a *rateAllocator) startSession(id string) bool {
	if _, ok := a.conns[id]; !ok {
		return false
	}
	if a.active[id] {
		a.dirty[id] = true
		return false
	}
	a.active[id] = true
	a.sessions++
	a.runSweep(id, 0)
	return true
}

// retryControl schedules a retransmission of a lost sweep with
// exponential backoff; false when the budget is exhausted.
func (a *rateAllocator) retryControl(id string, hop, attempt int, resend func(attempt int)) bool {
	if attempt >= a.opts.MaxRetries {
		return false
	}
	a.retransmits++
	eventbus.Pub(a.bus, eventbus.ControlRetransmit{Proto: a.name, Conn: id, Hop: hop, Attempt: attempt + 1})
	backoff := a.opts.RetryBase * float64(int(1)<<attempt)
	a.sim.PostAfter(backoff, func() { resend(attempt + 1) })
	return true
}

// runSweep performs the single explicit-rate round trip: the control
// packet clamps its stamp at every switch out and back, then the source
// commits with an UPDATE. A hop lost to the delivery hook leaves
// partial recorded state (like a real lost packet) and is resent after
// backoff.
func (a *rateAllocator) runSweep(id string, attempt int) {
	c, ok := a.conns[id]
	if !ok {
		a.finishSession(id)
		a.maybeConverged()
		return
	}
	stamp := c.demand
	travel := 0.0
	hop := 0
	for pass := 0; pass < 2; pass++ {
		order := c.path
		if pass == 1 {
			order = reversedPath(c.path)
		}
		for _, lname := range order {
			a.messages++
			travel += a.opts.HopDelay
			if d := a.opts.Deliver; d != nil {
				drop, extra := d(id, hop, false)
				if drop {
					if !a.retryControl(id, hop, attempt, func(n int) { a.runSweep(id, n) }) {
						a.finishSession(id)
						a.maybeConverged()
					}
					return
				}
				travel += extra
			}
			hop++
			l := a.links[lname]
			if mu := a.offer(l, id); mu < stamp {
				stamp = mu
			}
			l.record(id, stamp)
		}
	}
	final := stamp
	eventbus.Pub(a.bus, eventbus.AdaptationRound{Conn: id, Round: 1, Stamp: final})
	a.sim.PostAfter(travel, func() { a.sendUpdate(id, final, 0) })
}

// sendUpdate commits the stamped rate at every switch and fires the
// rate observer; a committed change cascades to drifted neighbors.
func (a *rateAllocator) sendUpdate(id string, rate float64, attempt int) {
	c, ok := a.conns[id]
	if !ok {
		a.finishSession(id)
		a.maybeConverged()
		return
	}
	travel := 0.0
	for i, lname := range c.path {
		a.messages++
		travel += a.opts.HopDelay
		if d := a.opts.Deliver; d != nil {
			drop, extra := d(id, i, true)
			if drop {
				if !a.retryControl(id, i, attempt, func(n int) { a.sendUpdate(id, rate, n) }) {
					a.finishSession(id)
					a.maybeConverged()
				}
				return
			}
			travel += extra
		}
		a.links[lname].record(id, rate)
	}
	a.sim.PostAfter(travel, func() {
		changed := math.Abs(c.rate-rate) > 1e-9*(1+math.Abs(rate))
		c.rate = rate
		if changed && a.onUpdate != nil {
			a.onUpdate(id, rate)
		}
		a.finishSession(id)
		if changed {
			a.cascade(id)
		}
		a.maybeConverged()
	})
}

func (a *rateAllocator) finishSession(id string) {
	delete(a.active, id)
	if a.dirty[id] {
		delete(a.dirty, id)
		a.startSession(id)
	}
}

// maybeConverged publishes convergence when the allocator goes
// quiescent (reusing the MaxminConverged kind — the closed eventbus set
// is shared by every allocator; the obs instruments read it
// generically).
func (a *rateAllocator) maybeConverged() {
	if len(a.active) == 0 && len(a.dirty) == 0 && a.sessions > 0 {
		eventbus.Pub(a.bus, eventbus.MaxminConverged{Sessions: a.sessions, Messages: a.messages})
	}
}

// cascade kicks every connection sharing a link with id whose committed
// rate drifted from its fresh offer. Sessions that commit an unchanged
// rate do not cascade, which is what terminates the ripple.
func (a *rateAllocator) cascade(id string) {
	c, ok := a.conns[id]
	if !ok {
		return
	}
	targets := map[string]bool{}
	for _, lname := range c.path {
		l := a.links[lname]
		for _, other := range l.ids {
			if other != id && a.drifted(a.conns[other]) {
				targets[other] = true
			}
		}
	}
	for _, t := range sortx.Keys(targets) {
		a.startSession(t)
	}
}

func dedupPath(path []string) []string {
	seen := make(map[string]bool, len(path))
	out := make([]string, 0, len(path))
	for _, l := range path {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func reversedPath(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
