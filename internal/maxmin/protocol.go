package maxmin

import (
	"fmt"
	"math"
	"slices"

	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/sortx"
)

// Deliver decides the fate of one control-packet hop: conn is the
// connection whose session the packet belongs to, hop is the 0-based
// transmission index within the sweep, and update distinguishes UPDATE
// commits from ADVERTISE rounds. A nil hook delivers everything
// untouched and costs nothing.
type Deliver func(conn string, hop int, update bool) (drop bool, delay float64)

// ProtocolOptions tunes the event-driven ADVERTISE/UPDATE protocol.
type ProtocolOptions struct {
	// Refined enables the paper's M(l) refinement: on new bandwidth a
	// switch initiates ADVERTISE packets only for connections that
	// consider the link a bottleneck; on reduced bandwidth only for
	// connections whose recorded rate exceeds the advertised rate.
	// When false the switch floods every connection on the link (the
	// baseline of [8]).
	Refined bool
	// HopDelay is the one-hop control-packet latency in seconds.
	HopDelay float64
	// RoundTrips is the number of ADVERTISE round trips per adaptation
	// session; the paper (citing [8]) requires four for convergence.
	RoundTrips int
	// Delta is the paper's δ: capacity increases smaller than Delta do
	// not trigger adaptation (eqn. 2), bounding steady-state drift.
	Delta float64
	// Deliver, when non-nil, filters every control-packet hop (fault
	// injection).
	Deliver Deliver
	// MaxRetries bounds retransmissions of a lost ADVERTISE sweep or
	// UPDATE (default 3; negative disables retransmission). An exhausted
	// budget abandons the session — the re-ADVERTISE loop repairs the
	// resulting partial state.
	MaxRetries int
	// RetryBase is the first retransmission backoff; it doubles per
	// attempt (default 20 × HopDelay).
	RetryBase float64
	// ReadvertisePeriod, when positive, arms a periodic repair loop that
	// kicks connections whose committed rate drifted from their current
	// fair offer — the recovery path for sessions lost to control-plane
	// faults. Zero (the default) disables it.
	ReadvertisePeriod float64
}

func (o ProtocolOptions) withDefaults() ProtocolOptions {
	if o.HopDelay <= 0 {
		o.HopDelay = 1e-3
	}
	if o.RoundTrips <= 0 {
		o.RoundTrips = 4
	}
	if o.Delta < 0 {
		o.Delta = 0
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 20 * o.HopDelay
	}
	return o
}

// SwitchRule is the fair-share computation every switch on a path runs
// on the stamped rate. The session around it — the sweep, the UPDATE,
// retransmission, coalescing, the cascade and the repair loop — is the
// same for every rule, as in an ABR network where the RM-cell loop is
// fixed and only the switch's share computation differs (Fahmy et al.).
//
// A nil Weight is the paper's rule (§5.3.1): RoundTrips ADVERTISE round
// trips offering the restricted-set μ_l, M(l) kept at every hop, and a
// capacity change or a committed change re-advertising by M(l) (or to
// every sharer when not Refined).
//
// A non-nil Weight is the explicit-rate rule: one round trip per
// session, in which each switch offers
//
//	μ_l(c) = max(C_l · w_c / Σ_j w_j, C_l − Σ_{j≠c} recorded_j)
//
// clamped at 0, where w_c = Weight(demand_c) is fixed when c is added.
// There is no M(l): a capacity change or a committed change
// re-advertises every connection that drifted (see Protocol.drifted),
// and Refined and RoundTrips are ignored.
type SwitchRule struct {
	// Name labels the rule's duplicate-link error and its
	// ControlRetransmit events.
	Name string
	// Weight is a connection's share of a saturated link as a function
	// of its demand, or nil for the paper's rule.
	Weight func(demand float64) float64
}

// Paper is the paper's rule, the one NewProtocolOn runs.
var Paper = SwitchRule{Name: "maxmin"}

// ControlStats counts a protocol's control-plane work: the currency of
// the arena's overhead comparison.
type ControlStats struct {
	// Messages counts ADVERTISE and UPDATE hops traversed — the metric
	// for the flooding-vs-refined ablation.
	Messages int
	// Sessions counts adaptation sessions started.
	Sessions int
	// Retransmits counts sweeps resent after a control-packet loss;
	// Readvertises counts connections kicked by the periodic repair
	// loop.
	Retransmits, Readvertises int
}

// linkState is the per-link protocol state a switch maintains: one table
// of the connections on the link in ascending ID order — the order every
// sum over them has always run in, so the floats come out bit-identical
// with no per-hop sort. ids, recorded, inM and weight are parallel; a
// row is inserted by AddConn and deleted by RemoveConn.
//
// The advertised rate is a function of capacity, the row set and the
// recorded rates, so the switch remembers it (§5.3.1 keeps μ_l as state):
// version counts the changes to those three, every write to them goes
// through insert, remove, record or setCapacity, and an answer computed
// at one version is reused until the version moves.
type linkState struct {
	name     string
	capacity float64
	ids      sortx.IDs[string]
	// recorded is the last seen stamped rate per connection (§5.3.1).
	recorded []float64
	// inM marks M(l), the connections that consider this link a
	// bottleneck; mCount is |M(l)|.
	inM    []bool
	mCount int
	// restricted is the μ iteration's scratch, kept to the table's length.
	restricted []bool
	// explicit selects the explicit-rate offer (a rule with a Weight);
	// weight is then each row's weight, fixed when the row is inserted,
	// and nil otherwise.
	explicit bool
	weight   []float64
	// version is bumped by every change μ depends on. A link holding a
	// row has been through insert, so its version is not zero and a zero
	// muAt (here or on a connection's hop) is an empty memo.
	version uint64
	// mu is advertised() as of version muAt.
	mu   float64
	muAt uint64
}

// slot returns id's row, or -1 when id is not on the link. *hint is
// tried first and refreshed on a miss: rows only shift when a connection
// joins or leaves the link, so a session's hops mostly hit.
func (ls *linkState) slot(id string, hint *int) int {
	if h := *hint; h < len(ls.ids) && ls.ids[h] == id {
		return h
	}
	i, ok := ls.ids.Find(id)
	if !ok {
		return -1
	}
	*hint = i
	return i
}

// insert adds a row for id with a zero recorded rate, outside M(l), of
// weight w under the explicit-rate rule.
func (ls *linkState) insert(id string, w float64) {
	i, added := ls.ids.Insert(id)
	if !added {
		ls.record(i, 0)
		return
	}
	ls.recorded = slices.Insert(ls.recorded, i, 0)
	ls.inM = slices.Insert(ls.inM, i, false)
	ls.restricted = append(ls.restricted, false)
	if ls.explicit {
		ls.weight = slices.Insert(ls.weight, i, w)
	}
	ls.version++
}

// remove deletes id's row, if any.
func (ls *linkState) remove(id string) {
	i, ok := ls.ids.Remove(id)
	if !ok {
		return
	}
	ls.setM(i, false)
	ls.recorded = slices.Delete(ls.recorded, i, i+1)
	ls.inM = slices.Delete(ls.inM, i, i+1)
	ls.restricted = ls.restricted[:len(ls.ids)]
	if ls.explicit {
		ls.weight = slices.Delete(ls.weight, i, i+1)
	}
	ls.version++
}

// record sets row i's recorded rate. Rounds two to four of a session
// re-stamp the value round one wrote, and a settled network re-stamps
// what it already holds: writing the bits that are there is not a change,
// which is what lets μ be remembered across ADVERTISE hops at all.
func (ls *linkState) record(i int, rate float64) {
	if math.Float64bits(ls.recorded[i]) != math.Float64bits(rate) {
		ls.recorded[i] = rate
		ls.version++
	}
}

// setCapacity sets the link's excess capacity.
func (ls *linkState) setCapacity(capacity float64) {
	if math.Float64bits(ls.capacity) != math.Float64bits(capacity) {
		ls.capacity = capacity
		ls.version++
	}
}

// setM sets row i's membership in M(l).
func (ls *linkState) setM(i int, in bool) {
	if ls.inM[i] == in {
		return
	}
	ls.inM[i] = in
	if in {
		ls.mCount++
	} else {
		ls.mCount--
	}
}

// advertised returns μ_l for the current recorded rates, recomputed only
// when the link changed since it was last asked.
func (ls *linkState) advertised() float64 {
	if len(ls.ids) == 0 { // possibly never written to: version and muAt both zero
		return ls.capacity
	}
	if ls.muAt != ls.version {
		ls.mu, ls.muAt = ls.advertisedFor(-1), ls.version
	}
	return ls.mu
}

// advertisedFor computes the stamped rate the switch would offer the
// connection in row forced "under the assumption that this switch is a
// bottleneck for this connection": that row is held unrestricted in the
// restricted-set iteration. A forced of -1 (a connection not on the
// link) restricts by rate alone, which is μ_l itself. It always computes;
// protoConn.offer remembers the answer for a connection's own row. Under
// the explicit-rate rule it is explicitOffer instead.
func (ls *linkState) advertisedFor(forced int) float64 {
	if ls.explicit {
		return ls.explicitOffer(forced)
	}
	return advertisedRate(ls.capacity, ls.recorded, ls.restricted, forced)
}

// explicitOffer is the explicit-rate rule's offer to row forced: the
// larger of its weighted share and the capacity the other rows' recorded
// rates leave, clamped at 0. Both sums run in one ascending-row walk. A
// forced of -1 (a connection not on the link) has no share, and an empty
// link offers its capacity.
func (ls *linkState) explicitOffer(forced int) float64 {
	if len(ls.ids) == 0 {
		return ls.capacity
	}
	others, wsum, w := 0.0, 0.0, 0.0
	for i, wi := range ls.weight {
		wsum += wi
		if i == forced {
			w = wi
		} else {
			others += ls.recorded[i]
		}
	}
	mu := ls.capacity - others
	if share := ls.capacity * w / wsum; share > mu {
		mu = share
	}
	if mu < 0 {
		mu = 0
	}
	return mu
}

// Protocol is the event-driven distributed rate allocator. Connections
// register with their link paths; TriggerCapacityChange models a switch
// detecting changed excess bandwidth and starts adaptation sessions whose
// ADVERTISE packets travel hop by hop on the simulator. After the
// configured round trips the initiator issues an UPDATE that commits the
// new rate at every hop and fires OnUpdate. Every switch runs one
// SwitchRule, fixed at construction.
type Protocol struct {
	clk  clock.Clock
	rule SwitchRule
	Opts ProtocolOptions
	// OnUpdate, when non-nil, observes every committed rate change.
	OnUpdate func(conn string, rate float64)
	// Bus, when non-nil, receives an AdaptationRound event per ADVERTISE
	// round trip and a MaxminConverged event whenever the protocol goes
	// quiescent (no active or pending sessions).
	Bus *eventbus.Bus

	links map[string]*linkState
	conns map[string]*protoConn
	ControlStats

	nActive, nDirty int // connections with protoConn.active / dirty set
	free            []*step
	// targets is TriggerCapacityChange's and cascade's scratch: a call
	// takes it and leaves nil, so a re-entrant one cannot alias it.
	targets []string
}

type protoConn struct {
	id     string
	demand float64
	rate   float64
	// active marks a session in flight and dirty a session requested
	// while one was, which reruns once when it ends. removed is set by
	// RemoveConn: a continuation still holding this connection looks its
	// ID up again (see resolve).
	active, dirty, removed bool
	// hops is the path with repeats dropped, each link resolved once (a
	// link is never unregistered).
	hops []connHop
}

// connHop is a connection's state at one link of its path.
type connHop struct {
	link *linkState
	// slot hints at the connection's row in link's table (see
	// linkState.slot).
	slot int
	// mu is the link's last offer to this connection — advertisedFor its
	// own row — and muAt the link version it was computed at. A re-added
	// ID gets a fresh protoConn, so a memo never outlives its row.
	mu   float64
	muAt uint64
}

// row returns the link at hop i of pc's path and pc's row in its table.
func (pc *protoConn) row(i int) (*linkState, int) {
	h := &pc.hops[i]
	return h.link, h.link.slot(pc.id, &h.slot)
}

// offer returns the stamped rate the switch at hop i offers pc, asking
// the link only when it changed since this connection last asked. The
// answer is left in the hop's mu either way.
func (pc *protoConn) offer(i int) float64 {
	h := &pc.hops[i]
	if ls := h.link; h.muAt != ls.version {
		s := ls.slot(pc.id, &h.slot)
		h.mu = ls.advertisedFor(s)
		if s >= 0 { // the answer for "not on the link" is not this row's
			h.muAt = ls.version
		}
	}
	return h.mu
}

// NewProtocolOn builds a protocol instance running the paper's rule
// whose timers (sweep travel, retransmit backoff, the re-ADVERTISE
// repair ticker) all run on clk: clock.Sim(sim) for simulated time, a
// *clock.Wall for real time. A positive ReadvertisePeriod arms the repair
// ticker immediately.
func NewProtocolOn(clk clock.Clock, opts ProtocolOptions) *Protocol {
	return NewProtocolWith(clk, opts, Paper)
}

// NewProtocolWith is NewProtocolOn with every switch running rule.
func NewProtocolWith(clk clock.Clock, opts ProtocolOptions, rule SwitchRule) *Protocol {
	pr := &Protocol{
		clk:   clk,
		rule:  rule,
		Opts:  opts.withDefaults(),
		links: make(map[string]*linkState),
		conns: make(map[string]*protoConn),
	}
	if pr.Opts.ReadvertisePeriod > 0 {
		clk.Every(pr.Opts.ReadvertisePeriod, pr.readvertise)
	}
	return pr
}

// explicit reports whether the switches run the explicit-rate rule.
func (pr *Protocol) explicit() bool { return pr.rule.Weight != nil }

// Rule returns the switch rule every switch runs.
func (pr *Protocol) Rule() SwitchRule { return pr.rule }

// Stats returns the control-plane work counters.
func (pr *Protocol) Stats() ControlStats { return pr.ControlStats }

// tol is the drift tolerance: δ, or 1e-9 when δ is zero.
func (pr *Protocol) tol() float64 {
	if pr.Opts.Delta > 0 {
		return pr.Opts.Delta
	}
	return 1e-9
}

// drifted reports whether pc's committed rate is more than tol from its
// current offer min(demand, min_l offer_l(pc)), or from the rate some hop
// recorded for it. The second test catches a lost sweep that stranded a
// *stale* recorded rate on an upstream link — a state that looks locally
// fair (the offer matches the committed rate) yet blocks neighbors from
// their share.
func (pr *Protocol) drifted(pc *protoConn) bool {
	tol := pr.tol()
	offer := pc.demand
	for i := range pc.hops {
		if mu := pc.offer(i); mu < offer {
			offer = mu
		}
	}
	if math.Abs(offer-pc.rate) > tol {
		return true
	}
	for i := range pc.hops {
		recorded := 0.0 // what a connection missing from the link reads
		if ls, s := pc.row(i); s >= 0 {
			recorded = ls.recorded[s]
		}
		if math.Abs(recorded-pc.rate) > tol {
			return true
		}
	}
	return false
}

// readvertise kicks every quiescent connection that drifted. At the
// rule's fixpoint no connection has, so a converged protocol schedules
// nothing.
func (pr *Protocol) readvertise() {
	kicked := 0
	for _, id := range sortx.Keys(pr.conns) {
		if pc := pr.conns[id]; !pc.active && pr.drifted(pc) && pr.startSession(id) {
			kicked++
		}
	}
	if kicked > 0 {
		pr.Readvertises += kicked
		eventbus.Pub(pr.Bus, eventbus.Readvertise{Kicked: kicked})
	}
}

// retryControl posts st, a lost sweep's resend step, after exponential
// backoff; it reports false when the budget is exhausted.
func (pr *Protocol) retryControl(st step, hop int) bool {
	if st.attempt >= pr.Opts.MaxRetries {
		return false
	}
	pr.Retransmits++
	eventbus.Pub(pr.Bus, eventbus.ControlRetransmit{Proto: pr.rule.Name, Conn: st.pc.id, Hop: hop, Attempt: st.attempt + 1})
	backoff := pr.Opts.RetryBase * float64(int(1)<<st.attempt)
	st.attempt++
	pr.post(backoff, st)
	return true
}

// AddLink registers a link with its excess capacity.
func (pr *Protocol) AddLink(name string, capacity float64) error {
	if _, ok := pr.links[name]; ok {
		return fmt.Errorf("%s: duplicate link %s", pr.rule.Name, name)
	}
	if capacity < 0 {
		return fmt.Errorf("%w: %s = %v", ErrBadCapacity, name, capacity)
	}
	pr.links[name] = &linkState{name: name, capacity: capacity, explicit: pr.explicit()}
	return nil
}

// AddConn registers a connection; its initial rate is zero until an
// adaptation session runs.
func (pr *Protocol) AddConn(c Conn) error {
	if _, ok := pr.conns[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateConn, c.ID)
	}
	if len(c.Path) == 0 {
		return fmt.Errorf("%w: %s", ErrEmptyPath, c.ID)
	}
	for _, l := range c.Path {
		if _, ok := pr.links[l]; !ok {
			return fmt.Errorf("%w: %s uses %s", ErrUnknownLink, c.ID, l)
		}
	}
	demand := c.Demand
	if demand < 0 {
		return fmt.Errorf("%w: %s", ErrBadDemand, c.ID)
	}
	w := 0.0
	if pr.explicit() {
		w = pr.rule.Weight(demand)
	}
	pc := &protoConn{id: c.ID, demand: demand, hops: make([]connHop, 0, len(c.Path))}
	for _, l := range c.Path {
		ls := pr.links[l]
		if !slices.ContainsFunc(pc.hops, func(h connHop) bool { return h.link == ls }) {
			pc.hops = append(pc.hops, connHop{link: ls})
			ls.insert(c.ID, w)
		}
	}
	pr.conns[c.ID] = pc
	return nil
}

// RemoveConn drops a connection and frees its recorded rates.
func (pr *Protocol) RemoveConn(id string) {
	pc, ok := pr.conns[id]
	if !ok {
		return
	}
	for _, h := range pc.hops {
		h.link.remove(id)
	}
	delete(pr.conns, id)
	pc.removed = true
	pr.clearFlags(pc)
}

// Rates returns the current committed allocation.
func (pr *Protocol) Rates() Allocation {
	out := make(Allocation, len(pr.conns))
	for id, c := range pr.conns {
		out[id] = c.rate
	}
	return out
}

// Problem exports the current instance for comparison with WaterFill.
func (pr *Protocol) Problem() Problem {
	p := Problem{Capacity: make(map[string]float64, len(pr.links))}
	for name, ls := range pr.links {
		p.Capacity[name] = ls.capacity
	}
	for _, id := range sortx.Keys(pr.conns) {
		c := pr.conns[id]
		path := make([]string, len(c.hops))
		for i, h := range c.hops {
			path[i] = h.link.name
		}
		p.Conns = append(p.Conns, Conn{ID: id, Path: path, Demand: c.demand})
	}
	return p
}

// LinkBottleneck reports the size of one link's bottleneck set M(l).
type LinkBottleneck struct {
	Link string
	Size int
}

// BottleneckSizes exports the current per-link |M(l)| under the refined
// protocol, sorted by link ID; links whose bottleneck set is empty are
// skipped. This is a read-only observability tap — it never mutates
// protocol state.
func (pr *Protocol) BottleneckSizes() []LinkBottleneck {
	var out []LinkBottleneck
	for _, name := range sortx.Keys(pr.links) {
		if n := pr.links[name].mCount; n > 0 {
			out = append(out, LinkBottleneck{Link: name, Size: n})
		}
	}
	return out
}

// TriggerCapacityChange models the switch owning the link detecting a new
// excess capacity (eqn. 2): decreases always trigger; increases trigger
// only when they exceed δ and, under the refinement, only for connections
// in M(l). Under the explicit-rate rule the switch kicks every connection
// on the link that drifted, each judged after the sessions started before
// it have swept. Returns the number of sessions started.
func (pr *Protocol) TriggerCapacityChange(link string, capacity float64) (int, error) {
	ls, ok := pr.links[link]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownLink, link)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("%w: %s = %v", ErrBadCapacity, link, capacity)
	}
	old := ls.capacity
	increase := capacity > old
	if increase && capacity-old <= pr.Opts.Delta {
		return 0, nil // below the adaptation threshold
	}
	ls.setCapacity(capacity)
	started := 0
	if pr.explicit() {
		for _, id := range ls.ids {
			if pr.drifted(pr.conns[id]) && pr.startSession(id) {
				started++
			}
		}
		return started, nil
	}
	adv := ls.advertised()
	targets := pr.targets[:0]
	pr.targets = nil
	for i, id := range ls.ids {
		if !pr.Opts.Refined {
			targets = append(targets, id)
			continue
		}
		if increase {
			// New bandwidth helps only connections bottlenecked here
			// (M(l) is refreshed on every UPDATE, so it is current).
			if ls.inM[i] {
				targets = append(targets, id)
			}
		} else {
			// Reduced bandwidth hurts connections drawing more than the
			// new advertised rate.
			if ls.recorded[i] > adv {
				targets = append(targets, id)
			}
		}
	}
	for _, id := range targets {
		if pr.startSession(id) {
			started++
		}
	}
	pr.targets = targets
	return started, nil
}

// KickAll starts a session for every registered connection — used after
// connection setup/teardown, where the paper treats admission as carrying
// the stamped rate in its forward pass.
func (pr *Protocol) KickAll() {
	for _, id := range sortx.Keys(pr.conns) {
		pr.startSession(id)
	}
}

// Kick starts an adaptation session for a single connection — the entry
// point for connection setup, where the paper's admission forward pass
// carries the stamped rate.
func (pr *Protocol) Kick(id string) bool { return pr.startSession(id) }

// startSession begins the adaptation session of one connection.
// Overlapping requests coalesce: a second request during an active
// session marks the connection dirty and reruns once.
func (pr *Protocol) startSession(id string) bool {
	pc, ok := pr.conns[id]
	if !ok {
		return false
	}
	if pc.active {
		if !pc.dirty {
			pc.dirty, pr.nDirty = true, pr.nDirty+1
		}
		return false
	}
	pc.active, pr.nActive = true, pr.nActive+1
	pr.Sessions++
	pr.runRound(step{pc: pc, round: 1, prev: math.Inf(1)})
	return true
}

// stepKind is what a session continuation does when it fires.
type stepKind uint8

const (
	afterRound   stepKind = iota // a sweep is back: the next round, or the UPDATE
	commit                       // the UPDATE is back: commit its rate
	resendRound                  // retransmit a lost ADVERTISE sweep
	resendUpdate                 // retransmit a lost UPDATE
)

// step is a session's continuation, holding what a closure per round
// used to capture: pc (a hint, see resolve), the round, its final stamp
// and the one before, the UPDATE's rate, the attempt. Records are pooled:
// fire (the record's run) is bound once, and run frees the record before
// it acts, des.Post's recycle-before-fire rule.
type step struct {
	pr                *Protocol
	fire              func()
	kind              stepKind
	pc                *protoConn
	round, attempt    int
	final, prev, rate float64
}

// post schedules st d seconds from now on a pooled record.
func (pr *Protocol) post(d float64, st step) {
	var rec *step
	if n := len(pr.free); n > 0 {
		rec, pr.free = pr.free[n-1], pr.free[:n-1]
	} else {
		rec = &step{}
		rec.fire = rec.run
	}
	st.pr, st.fire = pr, rec.fire
	*rec = st
	pr.clk.PostAfter(d, rec.fire)
}

// run is a record's fire: it frees the record, then continues the session.
func (rec *step) run() {
	st, pr := *rec, rec.pr
	rec.pc = nil // a pooled record keeps no connection alive
	pr.free = append(pr.free, rec)
	switch st.kind {
	case afterRound: // the explicit-rate rule runs one round
		if !pr.explicit() && st.round < pr.Opts.RoundTrips {
			pr.runRound(step{pc: st.pc, round: st.round + 1, prev: st.final})
			return
		}
		rate := st.final
		if st.prev < rate {
			rate = st.prev
		}
		pr.sendUpdate(step{pc: st.pc, rate: rate})
	case resendRound:
		pr.runRound(st)
	case resendUpdate:
		pr.sendUpdate(st)
	case commit: // pc, registered or not, is the connection the UPDATE swept
		changed := math.Abs(st.pc.rate-st.rate) > 1e-9*(1+math.Abs(st.rate))
		st.pc.rate = st.rate
		if changed && pr.OnUpdate != nil {
			pr.OnUpdate(st.pc.id, st.rate)
		}
		pr.finishSession(st.pc)
		if changed {
			// A committed change can shift fair shares for neighbors;
			// re-advertise to connections sharing a bottleneck, per the
			// cascade rule of §5.3.1.
			pr.cascade(st.pc)
		}
		pr.maybeConverged()
	}
}

// resolve returns the connection a continuation holding hint acts on:
// hint while it is registered, else whatever now holds its ID, or nil. A
// remove + re-add mid-session thus hands the rest of the session to the
// new connection, as sessions keyed by ID always did.
func (pr *Protocol) resolve(hint *protoConn) *protoConn {
	if !hint.removed {
		return hint
	}
	return pr.conns[hint.id]
}

// runRound performs one ADVERTISE round trip, round st.round: the packet
// sweeps the whole path (out and back), clamping its stamped rate at every
// hop; st.prev carries the previous round's result so the UPDATE can take
// the minimum of the two latest stamped rates as the paper prescribes. A
// sweep lost to the delivery hook leaves the hops it did reach updated
// (partial state, exactly like a real lost packet) and is resent after
// backoff; an exhausted budget abandons the session.
func (pr *Protocol) runRound(st step) {
	pc := pr.resolve(st.pc)
	if pc == nil { // the ID is gone, and its flags with it
		pr.maybeConverged()
		return
	}
	st.pc = pc
	stamp := pc.demand
	travel := 0.0
	// Clamp at every hop in both directions; because clamping is
	// idempotent per link we evaluate each link twice like the real
	// packet would, letting later links see earlier updates.
	n := len(pc.hops)
	for hop := 0; hop < 2*n; hop++ {
		i := hop
		if hop >= n {
			i = 2*n - 1 - hop // the way back
		}
		pr.Messages++
		travel += pr.Opts.HopDelay
		if d := pr.Opts.Deliver; d != nil {
			drop, extra := d(pc.id, hop, false)
			if drop {
				st.kind = resendRound
				if !pr.retryControl(st, hop) {
					pr.finishSession(pc)
					pr.maybeConverged()
				}
				return
			}
			travel += extra
		}
		in := stamp
		if mu := pc.offer(i); mu < stamp {
			stamp = mu
		}
		ls, s := pc.row(i)
		ls.record(s, stamp)
		if ls.explicit {
			continue
		}
		// Maintain M(l) per the paper's rule.
		muAll := ls.advertised()
		if muAll < in {
			ls.setM(s, true)
		} else if muAll > in {
			ls.setM(s, false)
		}
	}
	eventbus.Pub(pr.Bus, eventbus.AdaptationRound{Conn: pc.id, Round: st.round, Stamp: stamp})
	st.kind, st.final = afterRound, stamp
	pr.post(travel, st)
}

// sendUpdate commits st.rate along the path; the commit step finishes the
// session. An UPDATE lost mid-path leaves the hops it reached committed
// (partial state) and is resent after backoff — recommitting is
// idempotent; an exhausted budget abandons the session with the source
// never learning the rate, which the re-ADVERTISE loop later repairs.
func (pr *Protocol) sendUpdate(st step) {
	pc := pr.resolve(st.pc)
	if pc == nil { // the ID is gone, and its flags with it
		pr.maybeConverged()
		return
	}
	st.pc = pc
	travel := 0.0
	// The UPDATE commits the recorded rate at every hop and refreshes
	// M(l) membership: on the way out it collects each link's fresh
	// offer μ_l = advertisedFor(conn); on the way back it marks exactly
	// the links attaining the path minimum as the connection's
	// bottlenecks (§5.2's definition). Membership computed mid-session
	// goes stale once neighbors re-settle; without this refresh a later
	// upgrade cascade can skip a connection that is in fact bottlenecked
	// here and strand it below its maxmin share (see the
	// stale-bottleneck regression test). The explicit-rate rule keeps no
	// M(l), so its UPDATE only commits.
	explicit := pr.explicit()
	minMu := math.Inf(1)
	for i := range pc.hops {
		pr.Messages++
		travel += pr.Opts.HopDelay
		if d := pr.Opts.Deliver; d != nil {
			drop, extra := d(pc.id, i, true)
			if drop {
				st.kind = resendUpdate
				if !pr.retryControl(st, i) {
					pr.finishSession(pc)
					pr.maybeConverged()
				}
				return
			}
			travel += extra
		}
		ls, s := pc.row(i)
		ls.record(s, st.rate)
		if explicit {
			continue
		}
		if mu := pc.offer(i); mu < minMu {
			minMu = mu
		}
	}
	// Each hop's mu is still the offer just collected: a path holds a
	// link once, so no later hop wrote to an earlier one's table.
	if !explicit {
		for i := range pc.hops {
			ls, s := pc.row(i)
			ls.setM(s, pc.hops[i].mu <= minMu+1e-9*(1+minMu))
		}
	}
	st.kind = commit
	pr.post(travel, st)
}

// finishSession ends the session of the connection now holding hint's ID
// and reruns it once if it was requested meanwhile.
func (pr *Protocol) finishSession(hint *protoConn) {
	pc := pr.resolve(hint)
	if pc == nil {
		return
	}
	if pr.clearFlags(pc) {
		pr.startSession(pc.id)
	}
}

// clearFlags clears pc's session flags, keeping the counts, and reports
// whether a rerun was requested.
func (pr *Protocol) clearFlags(pc *protoConn) (dirty bool) {
	if pc.active {
		pc.active, pr.nActive = false, pr.nActive-1
	}
	if dirty = pc.dirty; dirty {
		pc.dirty, pr.nDirty = false, pr.nDirty-1
	}
	return dirty
}

// maybeConverged publishes MaxminConverged when no sessions remain in
// flight. Called after every point where a session can end (including the
// post-cascade commit path, so a cascade that restarts sessions
// suppresses the event).
func (pr *Protocol) maybeConverged() {
	if pr.nActive == 0 && pr.nDirty == 0 && pr.Sessions > 0 {
		eventbus.Pub(pr.Bus, eventbus.MaxminConverged{Sessions: pr.Sessions, Messages: pr.Messages})
	}
}

// cascade re-advertises connections that share a link with the one now
// holding hint's ID and whose recorded rate now deviates from the link's
// advertised rate by more than δ (refined mode), or every sharing
// connection (naive mode). Under the explicit-rate rule it re-advertises
// every sharing connection that drifted; one whose session commits an
// unchanged rate does not cascade, which ends the ripple.
func (pr *Protocol) cascade(hint *protoConn) {
	pc := pr.resolve(hint)
	if pc == nil {
		return
	}
	explicit, tol := pr.explicit(), pr.tol()
	targets := pr.targets[:0]
	pr.targets = nil
	for _, h := range pc.hops {
		ls := h.link
		if explicit {
			for _, other := range ls.ids {
				if other != pc.id && pr.drifted(pr.conns[other]) {
					targets = append(targets, other)
				}
			}
			continue
		}
		adv := ls.advertised()
		for i, other := range ls.ids {
			if other == pc.id {
				continue
			}
			// Paper's rule: on upgrades re-advertise the bottleneck set
			// M(l); on downgrades the connections drawing above the new
			// advertised rate. M(l) is kept fresh at every UPDATE (see
			// sendUpdate), which is what makes relying on it sound here —
			// a connection that settled while its neighbors still held
			// inflated rates is bottlenecked at this link and therefore
			// *in* M(l), so it gets re-advertised when they release.
			if !pr.Opts.Refined || ls.inM[i] || ls.recorded[i] > adv+tol {
				targets = append(targets, other)
			}
		}
	}
	slices.Sort(targets)
	targets = slices.Compact(targets)
	for _, t := range targets {
		pr.startSession(t)
	}
	pr.targets = targets
}
