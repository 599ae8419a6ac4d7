// Package signal models the paper's connection-setup signaling (§5.1) as
// actual control messages on the simulator: the forward pass travels the
// route hop by hop placing *tentative* holds, the destination evaluates
// the end-to-end tests, and the reverse pass commits the reservation (or
// a rollback sweep releases the holds). Concurrent setups therefore race
// realistically: two requests for the last slice of a link cannot both
// win, and abandoned sessions time out and clean up.
//
// The plane is hardened against a lossy control plane: an optional
// delivery hook (wired to the fault injector) may drop or delay any hop,
// lost messages are retransmitted with exponential backoff up to a retry
// budget, and a crash of the plane orphans the in-flight tentative holds
// — which the lease reaper reclaims when HoldLease is configured.
//
// The atomic admission logic itself stays in internal/admission; this
// package adds the latency, concurrency and failure semantics around it.
package signal

import (
	"errors"
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/eventbus"
	"armnet/internal/stats"
	"armnet/internal/topology"
)

// Errors reported to completion callbacks.
var (
	// errHopRejected is returned when a forward-pass hop lacks capacity
	// (including capacity tentatively held by concurrent setups).
	errHopRejected = errors.New("signal: rejected at hop")
	// errEndToEnd is returned when the destination's Table 2 evaluation
	// fails.
	errEndToEnd = errors.New("signal: end-to-end test failed")
	// errTimeout is returned when the session exceeded its deadline.
	errTimeout = errors.New("signal: setup timed out")
	// errLost is returned when a control message stayed lost after the
	// full retransmission budget.
	errLost = errors.New("signal: control message lost")
	// errLinkDown is returned when the forward pass reaches a failed
	// link.
	errLinkDown = errors.New("signal: link down")
)

// deliver decides the fate of one setup control message about to cross
// hop (0-based; forward hops are 0..n-1, the commit confirmation's
// reverse hops are n..2n-1). link names the route link the hop crosses
// (forward hop i crosses link i, reverse hop n+j crosses link n-1-j), and
// commit marks the commit confirmation's reverse pass. It may drop the
// message or add latency. A nil hook delivers everything untouched and
// costs nothing.
type deliver func(conn string, hop int, link string, commit bool) (drop bool, delay float64)

// Options tunes the signaling plane.
type Options struct {
	// Timeout aborts sessions that have not completed. Zero scales the
	// deadline with the route: perHopTimeout × hops, floored at 2 s (the
	// historical flat default, so short routes keep their behavior).
	Timeout float64
	// perHopTimeout is the per-hop deadline budget used when Timeout is
	// zero (default 0.5 s).
	perHopTimeout float64
	// MaxRetries bounds retransmissions per lost message (default 3;
	// negative disables retransmission).
	MaxRetries int
	// retryBase is the first retransmission backoff; it doubles per
	// attempt (default 50 ms).
	retryBase float64
	// HoldLease, when positive, arms a reaper that reclaims tentative
	// holds orphaned by a plane crash once they are older than the
	// lease. Zero (the default) means crashes leak holds forever.
	HoldLease float64
	// Deliver, when non-nil, filters every control message (fault
	// injection).
	Deliver deliver
	// Bus, when non-nil, receives SignalHold / SignalCommit / SignalAbort
	// events as sessions place tentative holds and resolve, plus
	// ControlRetransmit and HoldReclaimed under faults.
	Bus *eventbus.Bus
}

// hopProcessing is the per-switch control processing time, in seconds.
const hopProcessing = 200e-6

func (o Options) withDefaults() Options {
	if o.perHopTimeout <= 0 {
		o.perHopTimeout = 0.5
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.retryBase <= 0 {
		o.retryBase = 0.05
	}
	return o
}

// minTimeout is the historical flat session deadline; hop-scaled
// deadlines never drop below it.
const minTimeout = 2.0

// Result reports a finished setup session.
type Result struct {
	// Admission is the final outcome (zero value when the session never
	// reached the atomic commit).
	Admission admission.Result
	// Latency is the elapsed setup time in simulated seconds.
	Latency float64
	// Err classifies failures (nil on success).
	Err error
	// FailedHop is the 1-based hop index of a forward-pass rejection.
	FailedHop int
}

// orphan is hold state abandoned by a crash, awaiting lease expiry:
// either one tentative per-link hold, or (route != nil) a committed
// reservation whose confirmation never reached the source.
type orphan struct {
	conn   string
	at     float64
	link   topology.LinkID
	amount float64
	route  *topology.Route
}

// Plane runs setup sessions against one admission strategy and its
// shared ledger. All timer work — session deadlines, retransmission
// backoffs, the hold-lease reaper — goes through an injectable Clock,
// so the same state machine runs on the simulator and on wall time.
type Plane struct {
	clk clock.Clock
	Adm admission.Admitter
	// Ledger is the reservation ledger the plane's tentative holds and
	// teardown paths operate on — the same ledger the admitter books
	// into.
	Ledger *admission.Ledger
	opts   Options
	// pending holds tentative bandwidth per link from in-flight
	// sessions, visible to competing forward passes.
	pending map[topology.LinkID]float64
	// Sessions counts sessions started; Commits counts successes.
	Sessions, Commits, Rollbacks int
	// Retransmits counts control messages resent after loss; Reclaimed
	// counts orphans returned to the ledger by the lease reaper.
	Retransmits, Reclaimed int

	live        []*session
	orphans     []orphan
	reaperArmed bool
}

// NewPlaneOn builds a signaling plane over an admission strategy and
// the ledger it books into. Every timeout and hold lease runs on clk:
// clock.Sim(sim) for simulated time, a *clock.Wall for real time.
func NewPlaneOn(clk clock.Clock, adm admission.Admitter, lg *admission.Ledger, opts Options) *Plane {
	return &Plane{
		clk:     clk,
		Adm:     adm,
		Ledger:  lg,
		opts:    opts.withDefaults(),
		pending: make(map[topology.LinkID]float64),
	}
}

// PendingTotal returns the sum of all tentative holds — zero once every
// session has drained and every orphan was reclaimed. The sum is exact,
// so it is identical run to run whatever the map's order (auditors embed
// it in reports).
func (p *Plane) PendingTotal() float64 {
	var t stats.Sum
	for _, v := range p.pending {
		t.Add(v)
	}
	return t.Value()
}

// InFlight returns the number of setup sessions still in progress — the
// setup-queue depth the overload controller samples for escalation.
func (p *Plane) InFlight() int {
	n := 0
	for _, s := range p.live {
		if !s.finished {
			n++
		}
	}
	return n
}

// deadlineFor computes the session deadline: the explicit Timeout, or
// the per-hop budget scaled by route length, never below the historical
// 2 s floor.
func (p *Plane) deadlineFor(route topology.Route) float64 {
	if p.opts.Timeout > 0 {
		return p.opts.Timeout
	}
	d := p.opts.perHopTimeout * float64(len(route.Links))
	if d < minTimeout {
		d = minTimeout
	}
	return d
}

// Setup starts a signaling session for the given admission test and
// invokes done when it completes (success or failure). The callback runs
// at the simulated completion time.
func (p *Plane) Setup(t admission.Test, done func(Result)) {
	p.Sessions++
	start := p.clk.Now()
	s := &session{plane: p, test: t, done: done, start: start}
	deadline := p.clk.After(p.deadlineFor(t.Route), func() {
		if s.finished {
			return
		}
		if s.committed {
			// The reservation committed but the confirmation never made
			// it back: the source gives up, so the destination tears the
			// reservation down (holds were already converted).
			p.Rollbacks++
			eventbus.Pub(p.opts.Bus, eventbus.SignalAbort{Conn: t.ConnID, Reason: "timeout-after-commit", Hop: len(t.Route.Links)})
			p.Ledger.Release(t.ConnID, t.Route)
			s.finish(Result{Err: errTimeout, Latency: p.clk.Now() - start})
			return
		}
		s.rollback(len(s.held), "timeout")
		s.finish(Result{Err: errTimeout, Latency: p.clk.Now() - start})
	})
	s.deadline = deadline
	p.track(s)
	s.forward(0, 0)
}

// track registers a live session for crash handling, compacting the
// finished ones opportunistically.
func (p *Plane) track(s *session) {
	if len(p.live) >= 16 {
		kept := p.live[:0]
		for _, old := range p.live {
			if !old.finished {
				kept = append(kept, old)
			}
		}
		p.live = kept
	}
	p.live = append(p.live, s)
}

// Crash abandons every in-flight session with state loss: completion
// callbacks never fire, deadlines are disarmed, and tentative holds stay
// in the pending table as orphans. With HoldLease configured the reaper
// reclaims them after the lease; without it they leak — exactly the
// failure mode the fault auditor exists to catch. It returns the number
// of sessions lost.
func (p *Plane) Crash() int {
	n := 0
	for _, s := range p.live {
		if s.finished {
			continue
		}
		n++
		s.finished = true
		if s.deadline != nil {
			s.deadline.Cancel()
		}
		now := p.clk.Now()
		if s.committed {
			route := s.test.Route
			p.orphans = append(p.orphans, orphan{conn: s.test.ConnID, at: now, route: &route})
		}
		for _, id := range s.held {
			p.orphans = append(p.orphans, orphan{
				conn: s.test.ConnID, at: now,
				link: id, amount: s.test.Req.Bandwidth.Min,
			})
		}
		s.held = nil
	}
	p.live = nil
	p.armReaper()
	return n
}

// armReaper starts the periodic lease sweep (idempotent; only after the
// first crash, so fault-free runs schedule nothing extra).
func (p *Plane) armReaper() {
	if p.reaperArmed || p.opts.HoldLease <= 0 {
		return
	}
	p.reaperArmed = true
	p.clk.Every(p.opts.HoldLease, p.reap)
}

// reap reclaims orphans older than the lease.
func (p *Plane) reap() {
	now := p.clk.Now()
	kept := p.orphans[:0]
	for _, o := range p.orphans {
		if now-o.at < p.opts.HoldLease {
			kept = append(kept, o)
			continue
		}
		p.Reclaimed++
		if o.route != nil {
			for _, l := range o.route.Links {
				if ls := p.Ledger.Link(l.ID); ls != nil {
					if a, ok := ls.Alloc(o.conn); ok {
						eventbus.Pub(p.opts.Bus, eventbus.HoldReclaimed{
							Conn: o.conn, Link: string(l.ID), Amount: a.Min,
							Reason: "commit-lease",
						})
					}
				}
			}
			p.Ledger.Release(o.conn, *o.route)
			continue
		}
		p.pending[o.link] -= o.amount
		if p.pending[o.link] <= 1e-12 {
			delete(p.pending, o.link)
		}
		eventbus.Pub(p.opts.Bus, eventbus.HoldReclaimed{
			Conn: o.conn, Link: string(o.link), Amount: o.amount,
			Reason: "hold-lease",
		})
	}
	p.orphans = kept
}

type session struct {
	plane     *Plane
	test      admission.Test
	done      func(Result)
	start     float64
	held      []topology.LinkID // links with tentative holds, in order
	finished  bool
	committed bool
	deadline  clock.Timer
}

func (s *session) finish(r Result) {
	if s.finished {
		return
	}
	s.finished = true
	if s.deadline != nil {
		s.deadline.Cancel()
	}
	if s.done != nil {
		s.done(r)
	}
}

// hopDelay is the one-way control latency across one link.
func (s *session) hopDelay(l *topology.Link) float64 {
	return l.PropDelay + hopProcessing
}

// retry schedules a retransmission of a lost message with exponential
// backoff, or fails the session when the budget is spent. resend runs
// with the next attempt number.
func (s *session) retry(hop, attempt int, resend func(attempt int)) bool {
	p := s.plane
	if attempt >= p.opts.MaxRetries {
		return false
	}
	p.Retransmits++
	eventbus.Pub(p.opts.Bus, eventbus.ControlRetransmit{
		Proto: "signal", Conn: s.test.ConnID, Hop: hop, Attempt: attempt + 1,
	})
	backoff := p.opts.retryBase * float64(int(1)<<attempt)
	p.clk.PostAfter(backoff, func() { resend(attempt + 1) })
	return true
}

// forward advances the setup packet to hop i (0-based); it performs the
// bandwidth availability check against committed + pending holds, places
// this session's tentative hold, and proceeds. attempt counts
// retransmissions of this hop's message.
func (s *session) forward(i, attempt int) {
	if s.finished {
		return
	}
	if i == len(s.test.Route.Links) {
		s.atDestination()
		return
	}
	link := s.test.Route.Links[i]
	delay := s.hopDelay(link)
	if d := s.plane.opts.Deliver; d != nil {
		drop, extra := d(s.test.ConnID, i, string(link.ID), false)
		if drop {
			if !s.retry(i, attempt, func(a int) { s.forward(i, a) }) {
				s.rollback(i, "lost")
				s.finish(Result{Err: fmt.Errorf("%w at hop %d", errLost, i+1), FailedHop: i + 1, Latency: s.plane.clk.Now() - s.start})
			}
			return
		}
		delay += extra
	}
	s.plane.clk.PostAfter(delay, func() {
		if s.finished {
			return
		}
		ls := s.plane.Ledger.Link(link.ID)
		if ls == nil {
			s.rollback(i, "unknown-link")
			s.finish(Result{Err: fmt.Errorf("%w %d: unknown link %s", errHopRejected, i+1, link.ID), FailedHop: i + 1, Latency: s.plane.clk.Now() - s.start})
			return
		}
		if ls.Down {
			s.rollback(i, "link-down")
			s.finish(Result{Err: fmt.Errorf("%w: %s", errLinkDown, link.ID), FailedHop: i + 1, Latency: s.plane.clk.Now() - s.start})
			return
		}
		need := s.test.Req.Bandwidth.Min
		avail := ls.Capacity - ls.AdvanceReserved - ls.Pool() - ls.SumMin() - s.plane.pending[link.ID]
		if need > avail {
			s.rollback(i, "hop-rejected")
			s.finish(Result{Err: fmt.Errorf("%w %d (%s)", errHopRejected, i+1, link.ID), FailedHop: i + 1, Latency: s.plane.clk.Now() - s.start})
			return
		}
		s.plane.pending[link.ID] += need
		s.held = append(s.held, link.ID)
		eventbus.Pub(s.plane.opts.Bus, eventbus.SignalHold{Conn: s.test.ConnID, Link: string(link.ID)})
		s.forward(i+1, 0)
	})
}

// atDestination runs the atomic end-to-end admission (the Table 2
// destination tests plus the commit) and starts the reverse pass.
func (s *session) atDestination() {
	// Release our own tentative holds first: the atomic Admit must see
	// the ledger without them (they exist to serialize against
	// *concurrent* sessions, which still hold theirs).
	s.releaseHolds()
	res, err := s.plane.Adm.Admit(s.test)
	if err != nil {
		s.finish(Result{Err: err, Latency: s.plane.clk.Now() - s.start})
		return
	}
	if !res.Admitted {
		s.plane.Rollbacks++
		eventbus.Pub(s.plane.opts.Bus, eventbus.SignalAbort{
			Conn: s.test.ConnID, Reason: "end-to-end:" + res.Reason,
			Hop: len(s.test.Route.Links),
		})
		s.finish(Result{
			Admission: res,
			Err:       fmt.Errorf("%w: %s at %s", errEndToEnd, res.Reason, res.FailedLink),
			Latency:   s.plane.clk.Now() - s.start,
		})
		return
	}
	// Reverse pass back to the source: the reservation is committed; the
	// session completes when the confirmation reaches the source.
	s.committed = true
	s.sendConfirm(res, 0)
}

// sendConfirm carries the commit confirmation back to the source across
// the reverse hops (indices n..2n-1 for the delivery hook). A lost
// confirmation is retransmitted by the destination; when the budget runs
// out the destination tears the committed reservation down so nothing
// leaks.
func (s *session) sendConfirm(res admission.Result, attempt int) {
	if s.finished {
		return
	}
	n := len(s.test.Route.Links)
	total := 0.0
	for _, l := range s.test.Route.Links {
		total += s.hopDelay(l)
	}
	if d := s.plane.opts.Deliver; d != nil {
		for j := 0; j < n; j++ {
			drop, extra := d(s.test.ConnID, n+j, string(s.test.Route.Links[n-1-j].ID), true)
			if drop {
				if !s.retry(n+j, attempt, func(a int) { s.sendConfirm(res, a) }) {
					s.plane.Rollbacks++
					eventbus.Pub(s.plane.opts.Bus, eventbus.SignalAbort{Conn: s.test.ConnID, Reason: "commit-lost", Hop: n + j})
					s.plane.Ledger.Release(s.test.ConnID, s.test.Route)
					s.finish(Result{Err: fmt.Errorf("%w: commit confirmation", errLost), Latency: s.plane.clk.Now() - s.start})
				}
				return
			}
			total += extra
		}
	}
	s.plane.clk.PostAfter(total, func() {
		if s.finished {
			return
		}
		s.plane.Commits++
		latency := s.plane.clk.Now() - s.start
		eventbus.Pub(s.plane.opts.Bus, eventbus.SignalCommit{Conn: s.test.ConnID, Latency: latency})
		s.finish(Result{Admission: res, Latency: latency})
	})
}

// releaseHolds removes this session's tentative holds.
func (s *session) releaseHolds() {
	for _, id := range s.held {
		s.plane.pending[id] -= s.test.Req.Bandwidth.Min
		if s.plane.pending[id] <= 1e-12 {
			delete(s.plane.pending, id)
		}
	}
	s.held = nil
}

// rollback releases holds after a failure at hop i; the release messages
// travel back toward the source (latency is charged to the session's
// reported Latency implicitly, since holds release immediately in state
// but the session has already failed).
func (s *session) rollback(i int, reason string) {
	s.plane.Rollbacks++
	eventbus.Pub(s.plane.opts.Bus, eventbus.SignalAbort{Conn: s.test.ConnID, Reason: reason, Hop: i})
	s.releaseHolds()
}
