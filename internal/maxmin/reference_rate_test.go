package maxmin

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/sortx"
)

// refRate is the explicit-rate allocator as it was before it became a
// switch rule on Protocol: a session of its own with a closure posted per
// sweep, per UPDATE and per retransmission, the session flags in two
// ID-keyed maps, a cascade collecting its targets in a map, and a link
// table of its own. weight is the rule's weight; name labels its
// duplicate-link error and its ControlRetransmit events.
type refRate struct {
	name   string
	weight func(demand float64) float64
	clk    clock.Clock
	opts   ProtocolOptions
	bus    *eventbus.Bus

	links map[string]*rateLink
	conns map[string]*rateConn

	messages, sessions, retransmits, readvertises int

	active map[string]bool // per-connection session in flight
	dirty  map[string]bool // session requested while one was active
}

// rateLink is one switch's table of the connections on a link, in
// ascending ID order — the order offer sums them in.
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

func newRefRate(clk clock.Clock, opts ProtocolOptions, name string, weight func(float64) float64) *refRate {
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
	a := &refRate{
		name:   name,
		weight: weight,
		clk:    clk,
		opts:   opts,
		links:  make(map[string]*rateLink),
		conns:  make(map[string]*rateConn),
		active: make(map[string]bool),
		dirty:  make(map[string]bool),
	}
	if opts.ReadvertisePeriod > 0 {
		clk.Every(opts.ReadvertisePeriod, a.readvertise)
	}
	return a
}

// offer is the explicit rate for one connection at one switch:
// max(weighted share, capacity minus everyone else's recorded load),
// clamped non-negative.
func (a *refRate) offer(l *rateLink, conn string) float64 {
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

func (a *refRate) AddLink(name string, capacity float64) error {
	if _, ok := a.links[name]; ok {
		return fmt.Errorf("%s: duplicate link %s", a.name, name)
	}
	if capacity < 0 {
		return fmt.Errorf("%w: %s = %v", ErrBadCapacity, name, capacity)
	}
	a.links[name] = &rateLink{capacity: capacity}
	return nil
}

func (a *refRate) AddConn(s Conn) error {
	if _, ok := a.conns[s.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateConn, s.ID)
	}
	if len(s.Path) == 0 {
		return fmt.Errorf("%w: %s", ErrEmptyPath, s.ID)
	}
	for _, l := range s.Path {
		if _, ok := a.links[l]; !ok {
			return fmt.Errorf("%w: %s uses %s", ErrUnknownLink, s.ID, l)
		}
	}
	if s.Demand < 0 {
		return fmt.Errorf("%w: %s", ErrBadDemand, s.ID)
	}
	var path []string
	for _, l := range s.Path {
		if !slices.Contains(path, l) {
			path = append(path, l)
		}
	}
	c := &rateConn{id: s.ID, path: path, demand: s.Demand, weight: a.weight(s.Demand)}
	a.conns[s.ID] = c
	for _, name := range c.path {
		l := a.links[name]
		if i, added := l.ids.Insert(s.ID); added {
			l.recorded = slices.Insert(l.recorded, i, 0)
		}
	}
	return nil
}

func (a *refRate) RemoveConn(id string) {
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

func (a *refRate) Kick(id string) bool { return a.startSession(id) }

// KickAll is Protocol's: a session per connection in ID order.
func (a *refRate) KickAll() {
	for _, id := range sortx.Keys(a.conns) {
		a.startSession(id)
	}
}

// TriggerCapacityChange applies the eq. (2) trigger, then kicks every
// connection on the link that drifted, judging each after the sessions
// started before it have swept.
func (a *refRate) TriggerCapacityChange(link string, capacity float64) (int, error) {
	l, ok := a.links[link]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownLink, link)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("%w: %s = %v", ErrBadCapacity, link, capacity)
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

func (a *refRate) Rates() Allocation {
	out := make(Allocation, len(a.conns))
	for id, c := range a.conns {
		out[id] = c.rate
	}
	return out
}

func (a *refRate) counters() [4]int {
	return [4]int{a.messages, a.sessions, a.retransmits, a.readvertises}
}

func (a *refRate) setBus(bus *eventbus.Bus) { a.bus = bus }

func (a *refRate) tol() float64 {
	if a.opts.Delta > 0 {
		return a.opts.Delta
	}
	return 1e-9
}

// fairOffer is the rate a fresh sweep would stamp for the connection
// right now: min(demand, min_l μ_l(conn)).
func (a *refRate) fairOffer(c *rateConn) float64 {
	offer := c.demand
	for _, l := range c.path {
		if mu := a.offer(a.links[l], c.id); mu < offer {
			offer = mu
		}
	}
	return offer
}

// drifted reports whether the connection's committed rate deviates from
// its current offer, or from a rate some hop recorded, beyond tolerance.
func (a *refRate) drifted(c *rateConn) bool {
	if c == nil {
		return false
	}
	if math.Abs(a.fairOffer(c)-c.rate) > a.tol() {
		return true
	}
	for _, l := range c.path {
		if math.Abs(a.links[l].rate(c.id)-c.rate) > a.tol() {
			return true
		}
	}
	return false
}

func (a *refRate) readvertise() {
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

func (a *refRate) startSession(id string) bool {
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

func (a *refRate) retryControl(id string, hop, attempt int, resend func(attempt int)) bool {
	if attempt >= a.opts.MaxRetries {
		return false
	}
	a.retransmits++
	eventbus.Pub(a.bus, eventbus.ControlRetransmit{Proto: a.name, Conn: id, Hop: hop, Attempt: attempt + 1})
	backoff := a.opts.RetryBase * float64(int(1)<<attempt)
	a.clk.PostAfter(backoff, func() { resend(attempt + 1) })
	return true
}

// runSweep is the single round trip: the stamp is clamped at every
// switch out and back, then the source commits it with an UPDATE.
func (a *refRate) runSweep(id string, attempt int) {
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
			order = slices.Clone(c.path)
			slices.Reverse(order)
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
	a.clk.PostAfter(travel, func() { a.sendUpdate(id, final, 0) })
}

func (a *refRate) sendUpdate(id string, rate float64, attempt int) {
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
	a.clk.PostAfter(travel, func() {
		changed := math.Abs(c.rate-rate) > 1e-9*(1+math.Abs(rate))
		c.rate = rate
		a.finishSession(id)
		if changed {
			a.cascade(id)
		}
		a.maybeConverged()
	})
}

func (a *refRate) finishSession(id string) {
	delete(a.active, id)
	if a.dirty[id] {
		delete(a.dirty, id)
		a.startSession(id)
	}
}

func (a *refRate) maybeConverged() {
	if len(a.active) == 0 && len(a.dirty) == 0 && a.sessions > 0 {
		eventbus.Pub(a.bus, eventbus.MaxminConverged{Sessions: a.sessions, Messages: a.messages})
	}
}

// cascade kicks every connection sharing a link with id whose committed
// rate drifted from its fresh offer.
func (a *refRate) cascade(id string) {
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

// testRules are the paper's rule and the explicit-rate rule under unit
// and log weights, the rules the strategy package registers.
var testRules = []SwitchRule{
	Paper,
	{Name: "unit", Weight: func(float64) float64 { return 1 }},
	{Name: "log", Weight: func(d float64) float64 { return 1 + math.Log1p(d) }},
}

// collectThenStart is the mutant the comparison must catch: the
// explicit-rate rule with the paper's capacity trigger shape, which
// judges every connection on the link before starting any session. A
// session started early sweeps synchronously and moves what the later
// rows' offers read, so the two disagree wherever that changes a
// later row's drift.
type collectThenStart struct{ *Protocol }

func (m collectThenStart) TriggerCapacityChange(link string, capacity float64) (int, error) {
	ls := m.links[link]
	if capacity > ls.capacity && capacity-ls.capacity <= m.Opts.Delta {
		return 0, nil
	}
	ls.setCapacity(capacity)
	var targets []string
	for _, id := range ls.ids {
		if m.drifted(m.conns[id]) {
			targets = append(targets, id)
		}
	}
	started := 0
	for _, id := range targets {
		if m.startSession(id) {
			started++
		}
	}
	return started, nil
}

// TestExplicitRateMatchesReference holds the explicit-rate rule on
// Protocol to the allocator it replaced: over 40 seeds of the session
// script, with unit and log weights, 12 % mid-path loss and, on half the
// seeds, the re-ADVERTISE loop, the two agree bit for bit after every
// step. The mutant that collects its capacity-change targets before
// starting any session must disagree somewhere, which shows the scripts
// reach a capacity change whose sessions move a later row's drift.
func TestExplicitRateMatchesReference(t *testing.T) {
	for _, rule := range testRules[1:] {
		t.Run(rule.Name, func(t *testing.T) {
			plain := func(clk clock.Clock, opts ProtocolOptions) scripted { return NewProtocolWith(clk, opts, rule) }
			mutant := func(clk clock.Clock, opts ProtocolOptions) scripted {
				return collectThenStart{NewProtocolWith(clk, opts, rule)}
			}
			ref := func(clk clock.Clock, opts ProtocolOptions) scripted {
				return newRefRate(clk, opts, rule.Name, rule.Weight)
			}
			caught := 0
			for seed := int64(1); seed <= 40; seed++ {
				if msg, ok := lockstep(t, seed, 300, true, plain, ref); !ok {
					t.Fatalf("seed %d: %s", seed, msg)
				}
				if _, ok := lockstep(t, seed, 300, true, mutant, ref); !ok {
					caught++
				}
			}
			if caught == 0 {
				t.Fatal("the collect-then-start mutant matched the reference on every seed: no capacity change moved a later row's drift")
			}
			t.Logf("the collect-then-start mutant diverged on %d of 40 seeds", caught)
		})
	}
}
