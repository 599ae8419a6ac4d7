package maxmin

import (
	"fmt"
	"math"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/randx"
	"armnet/internal/sortx"
)

// refProtocol is the session as it was before continuations were pooled:
// a closure posted per round, per commit and per retransmission, each
// looking its connection up by ID, and the session flags in two ID-keyed
// maps. It shares links, connections and counters with the Protocol it
// wraps and overrides every method that starts, runs or ends a session.
type refProtocol struct {
	*Protocol
	active map[string]bool // per-connection session in flight
	dirty  map[string]bool // session requested while one was active
}

func newRefProtocol(clk clock.Clock, opts ProtocolOptions) *refProtocol {
	period := opts.ReadvertisePeriod
	opts.ReadvertisePeriod = 0 // the wrapped Protocol's ticker would run the new sessions
	pr := &refProtocol{Protocol: NewProtocolOn(clk, opts), active: map[string]bool{}, dirty: map[string]bool{}}
	if period > 0 {
		pr.Opts.ReadvertisePeriod = period
		clk.Every(period, pr.readvertise)
	}
	return pr
}

func (pr *refProtocol) readvertise() {
	tol := pr.Opts.delta
	if tol <= 0 {
		tol = 1e-9
	}
	ids := sortx.Keys(pr.conns)
	kicked := 0
	for _, id := range ids {
		if pr.active[id] {
			continue
		}
		pc := pr.conns[id]
		offer := pc.demand
		for i := range pc.hops {
			if mu := pc.offer(i); mu < offer {
				offer = mu
			}
		}
		drift := math.Abs(offer-pc.rate) > tol
		for i := range pc.hops {
			if drift {
				break
			}
			recorded := 0.0
			if ls, s := pc.row(i); s >= 0 {
				recorded = ls.recorded[s]
			}
			drift = math.Abs(recorded-pc.rate) > tol
		}
		if drift && pr.startSession(id) {
			kicked++
		}
	}
	if kicked > 0 {
		pr.Readvertises += kicked
		eventbus.Pub(pr.Bus, eventbus.Readvertise{Kicked: kicked})
	}
}

func (pr *refProtocol) retryControl(id string, hop, attempt int, resend func(attempt int)) bool {
	if attempt >= maxRetries {
		return false
	}
	pr.Retransmits++
	eventbus.Pub(pr.Bus, eventbus.ControlRetransmit{Proto: "maxmin", Conn: id, Hop: hop, Attempt: attempt + 1})
	backoff := retryHops * pr.Opts.hopDelay * float64(int(1)<<attempt)
	pr.clk.PostAfter(backoff, func() { resend(attempt + 1) })
	return true
}

func (pr *refProtocol) RemoveConn(id string) {
	pr.Protocol.RemoveConn(id)
	delete(pr.active, id)
	delete(pr.dirty, id)
}

func (pr *refProtocol) TriggerCapacityChange(link int, capacity float64) (int, error) {
	ls := pr.link(link)
	if ls == nil {
		return 0, fmt.Errorf("%w: index %d", errUnknownLink, link)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("%w: %s = %v", errBadCapacity, ls.name, capacity)
	}
	old := ls.capacity
	increase := capacity > old
	if increase && capacity-old <= pr.Opts.delta {
		return 0, nil
	}
	ls.setCapacity(capacity)
	adv := ls.advertised()
	var targets []string
	for i, r := range ls.rows {
		id := r.pc.id
		if !pr.Opts.Refined {
			targets = append(targets, id)
			continue
		}
		if increase {
			if ls.inM[i] {
				targets = append(targets, id)
			}
		} else {
			if ls.recorded[i] > adv {
				targets = append(targets, id)
			}
		}
	}
	started := 0
	for _, id := range targets {
		if pr.startSession(id) {
			started++
		}
	}
	return started, nil
}

func (pr *refProtocol) KickAll() {
	for _, id := range sortx.Keys(pr.conns) {
		pr.startSession(id)
	}
}

func (pr *refProtocol) Kick(id string) bool { return pr.startSession(id) }

func (pr *refProtocol) startSession(id string) bool {
	if _, ok := pr.conns[id]; !ok {
		return false
	}
	if pr.active[id] {
		pr.dirty[id] = true
		return false
	}
	pr.active[id] = true
	pr.Sessions++
	pr.runRound(id, 1, math.Inf(1))
	return true
}

func (pr *refProtocol) runRound(id string, round int, prevStamp float64) {
	pr.runRoundAttempt(id, round, prevStamp, 0)
}

func (pr *refProtocol) runRoundAttempt(id string, round int, prevStamp float64, attempt int) {
	pc, ok := pr.conns[id]
	if !ok {
		pr.finishSession(id)
		pr.maybeConverged()
		return
	}
	stamp := pc.demand
	travel := 0.0
	n := len(pc.hops)
	for hop := 0; hop < 2*n; hop++ {
		i := hop
		if hop >= n {
			i = 2*n - 1 - hop
		}
		pr.Messages++
		travel += pr.Opts.hopDelay
		if d := pr.Opts.Deliver; d != nil {
			drop, extra := d(id, hop, pc.hops[i].link.name, false)
			if drop {
				if !pr.retryControl(id, hop, attempt, func(a int) { pr.runRoundAttempt(id, round, prevStamp, a) }) {
					pr.finishSession(id)
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
		muAll := ls.advertised()
		if muAll < in {
			ls.setM(s, true)
		} else if muAll > in {
			ls.setM(s, false)
		}
	}
	final := stamp
	eventbus.Pub(pr.Bus, eventbus.AdaptationRound{Conn: id, Round: round, Stamp: final})
	pr.clk.PostAfter(travel, func() {
		if round < roundTrips {
			pr.runRound(id, round+1, final)
			return
		}
		rate := final
		if prevStamp < rate {
			rate = prevStamp
		}
		pr.sendUpdate(id, rate)
	})
}

func (pr *refProtocol) sendUpdate(id string, rate float64) {
	pr.sendUpdateAttempt(id, rate, 0)
}

func (pr *refProtocol) sendUpdateAttempt(id string, rate float64, attempt int) {
	pc, ok := pr.conns[id]
	if !ok {
		pr.finishSession(id)
		pr.maybeConverged()
		return
	}
	travel := 0.0
	minMu := math.Inf(1)
	for i := range pc.hops {
		pr.Messages++
		travel += pr.Opts.hopDelay
		if d := pr.Opts.Deliver; d != nil {
			drop, extra := d(id, i, pc.hops[i].link.name, true)
			if drop {
				if !pr.retryControl(id, i, attempt, func(a int) { pr.sendUpdateAttempt(id, rate, a) }) {
					pr.finishSession(id)
					pr.maybeConverged()
				}
				return
			}
			travel += extra
		}
		ls, s := pc.row(i)
		ls.record(s, rate)
		if mu := pc.offer(i); mu < minMu {
			minMu = mu
		}
	}
	for i := range pc.hops {
		ls, s := pc.row(i)
		ls.setM(s, pc.hops[i].mu <= minMu+1e-9*(1+minMu))
	}
	pr.clk.PostAfter(travel, func() {
		changed := math.Abs(pc.rate-rate) > 1e-9*(1+math.Abs(rate))
		pc.rate = rate
		if changed && pr.OnUpdate != nil {
			pr.OnUpdate(id, rate)
		}
		pr.finishSession(id)
		if changed {
			pr.cascade(id)
		}
		pr.maybeConverged()
	})
}

func (pr *refProtocol) finishSession(id string) {
	delete(pr.active, id)
	if pr.dirty[id] {
		delete(pr.dirty, id)
		pr.startSession(id)
	}
}

func (pr *refProtocol) maybeConverged() {
	if len(pr.active) == 0 && len(pr.dirty) == 0 && pr.Sessions > 0 {
		eventbus.Pub(pr.Bus, eventbus.MaxminConverged{Sessions: pr.Sessions, Messages: pr.Messages})
	}
}

func (pr *refProtocol) cascade(id string) {
	pc, ok := pr.conns[id]
	if !ok {
		return
	}
	tol := pr.Opts.delta
	if tol <= 0 {
		tol = 1e-9
	}
	targets := map[string]bool{}
	for _, h := range pc.hops {
		ls := h.link
		adv := ls.advertised()
		for i, r := range ls.rows {
			other := r.pc.id
			if other == id {
				continue
			}
			if !pr.Opts.Refined {
				targets[other] = true
				continue
			}
			if ls.inM[i] || ls.recorded[i] > adv+tol {
				targets[other] = true
			}
		}
	}
	for _, t := range sortx.Keys(targets) {
		pr.startSession(t)
	}
}

// trustingRemoved is the mutant the comparison must catch: when an ID is
// re-added, the connection removed under it has its removed flag cleared,
// so a continuation still holding it trusts the hint and acts on the old
// connection instead of the new one. An ID that stays gone resolves as
// before, so the mutant differs from the Protocol on the re-add race and
// nowhere else.
type trustingRemoved struct {
	*Protocol
	gone map[string]*protoConn
}

func (m trustingRemoved) RemoveConn(id string) {
	if pc := m.conns[id]; pc != nil {
		m.gone[id] = pc
	}
	m.Protocol.RemoveConn(id)
}

func (m trustingRemoved) AddConn(c Conn) error {
	err := m.Protocol.AddConn(c)
	if old := m.gone[c.ID]; old != nil && err == nil {
		old.removed = false
		delete(m.gone, c.ID)
	}
	return err
}

// lockstep runs the script on side and on ref in lockstep and returns the
// first step at which they differ — the committed rates bit for bit, the
// four counters, or the published AdaptationRound / MaxminConverged /
// ControlRetransmit / Readvertise records — with what differed; ok is
// true when they never do. A panic on side (a mutant can sweep rows that
// are gone) counts as a difference.
func lockstep(t *testing.T, seed int64, steps int, finite bool, side, ref func(clock.Clock, ProtocolOptions) scripted) (msg string, ok bool) {
	var got, want []eventbus.Record
	var pr, rf scripted
	logTo := func(s scripted, clk clock.Clock, log *[]eventbus.Record) scripted {
		bus := eventbus.New(clk)
		bus.Subscribe(func(r eventbus.Record) { *log = append(*log, r) })
		s.setBus(bus)
		return s
	}
	build := []func(clock.Clock, ProtocolOptions) scripted{
		func(clk clock.Clock, opts ProtocolOptions) scripted {
			pr = side(clk, opts)
			return logTo(pr, clk, &got)
		},
		func(clk clock.Clock, opts ProtocolOptions) scripted {
			rf = ref(clk, opts)
			return logTo(rf, clk, &want)
		},
	}
	defer func() {
		if p := recover(); p != nil {
			msg, ok = fmt.Sprint("panicked: ", p), false
		}
	}()
	msg, ok = "", true
	runScript(t, seed, steps, 0.12, finite, build, func(step int, _ *randx.Rand) {
		if !ok {
			return
		}
		diff := func(format string, args ...any) {
			msg, ok = fmt.Sprintf("step %d: ", step)+fmt.Sprintf(format, args...), false
		}
		a, b := pr.Rates(), rf.Rates()
		for id, r := range b {
			if g, on := a[id]; !on || math.Float64bits(g) != math.Float64bits(r) {
				diff("%s rate %v, reference %v", id, g, r)
				return
			}
		}
		if len(a) != len(b) {
			diff("%d connections, reference %d", len(a), len(b))
			return
		}
		if c, r := pr.counters(), rf.counters(); c != r {
			diff("messages/sessions/retransmits/readvertises %v, reference %v", c, r)
			return
		}
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				diff("record %d of %d differs from the reference's %d", i, len(got), len(want))
				return
			}
		}
		got, want = got[:0], want[:0]
	})
	return msg, ok
}

// TestSessionStepsMatchClosureReference holds the pooled continuations to
// the closures they replaced: over 40 seeds of adds, removes, re-adds of
// an ID whose round or UPDATE is in flight, capacity changes, kicks, a
// wire that drops hops until budgets run out and, on half the seeds, the
// re-ADVERTISE loop, the two agree after every step. The mutant that
// trusts a removed hint must disagree somewhere, which is what shows the
// scripts reach the re-add race at all.
func TestSessionStepsMatchClosureReference(t *testing.T) {
	plain := func(clk clock.Clock, opts ProtocolOptions) scripted { return NewProtocolOn(clk, opts) }
	mutant := func(clk clock.Clock, opts ProtocolOptions) scripted {
		return trustingRemoved{NewProtocolOn(clk, opts), map[string]*protoConn{}}
	}
	ref := func(clk clock.Clock, opts ProtocolOptions) scripted { return newRefProtocol(clk, opts) }
	caught := 0
	for seed := int64(1); seed <= 40; seed++ {
		if msg, ok := lockstep(t, seed, 300, false, plain, ref); !ok {
			t.Fatalf("seed %d: %s", seed, msg)
		}
		if _, ok := lockstep(t, seed, 300, false, mutant, ref); !ok {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("the mutant that trusts a removed hint matched the reference on every seed: the scripts never reach the re-add race")
	}
	t.Logf("the trusting-hint mutant diverged on %d of 40 seeds", caught)
}
