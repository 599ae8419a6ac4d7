package core

import (
	"fmt"
	"sort"
	"strings"

	"armnet/internal/eventbus"
)

// Ctr is a typed counter identifier. The manager itself never increments
// counters: it publishes events on the bus, and Metrics — a built-in
// subscriber — folds them into this closed set.
type Ctr int

// Counters maintained by Metrics.
const (
	CtrNewRequested Ctr = iota
	CtrNewAdmitted
	CtrNewBlocked
	CtrHandoffTried
	CtrHandoffOK
	CtrHandoffDropped
	CtrAdaptUpdates
	CtrAdvanceResv
	CtrPoolClaims
	CtrFaultsInjected
	CtrRetransmits
	CtrReclaimedHolds
	CtrShedSetups
	CtrDegradeCascades
	CtrBreakerTrips
	CtrBreakerFastFails

	ctrCount int = iota
)

var ctrNames = [ctrCount]string{
	CtrNewRequested:   "new-requested",
	CtrNewAdmitted:    "new-admitted",
	CtrNewBlocked:     "new-blocked",
	CtrHandoffTried:   "handoff-attempted",
	CtrHandoffOK:      "handoff-succeeded",
	CtrHandoffDropped: "handoff-dropped",
	CtrAdaptUpdates:   "adaptation-updates",
	CtrAdvanceResv:    "advance-reservations",
	CtrPoolClaims:     "pool-claims",
	CtrFaultsInjected: "faults-injected",
	CtrRetransmits:    "control-retransmits",
	CtrReclaimedHolds: "reclaimed-holds",
	// Overload control: sheds exclude breaker fast-fails, which get
	// their own counter; cascades count "degrade" actions only.
	CtrShedSetups:       "setups-shed",
	CtrDegradeCascades:  "degrade-cascades",
	CtrBreakerTrips:     "breaker-trips",
	CtrBreakerFastFails: "breaker-fast-fails",
}

// String returns the stable report name (the strings the pre-enum API
// used, so printed tables are unchanged).
func (c Ctr) String() string {
	if c < 0 || int(c) >= ctrCount {
		return fmt.Sprintf("Ctr(%d)", int(c))
	}
	return ctrNames[c]
}

// CounterSet is a fixed-size tally over the Ctr enum.
type CounterSet struct {
	counts [ctrCount]int64
}

// newCounterSet returns an empty counter set.
func newCounterSet() *CounterSet { return &CounterSet{} }

// inc adds one to the counter.
func (s *CounterSet) inc(c Ctr) { s.counts[c]++ }

// Get returns the counter's value.
func (s *CounterSet) Get(c Ctr) int64 { return s.counts[c] }

// Ratio returns num/den, or 0 when den is 0.
func (s *CounterSet) Ratio(num, den Ctr) float64 {
	d := s.counts[den]
	if d == 0 {
		return 0
	}
	return float64(s.counts[num]) / float64(d)
}

// Names returns the counters with nonzero values, sorted by report name —
// the same contract the string-keyed counter map offered, so report
// loops render identical tables.
func (s *CounterSet) Names() []Ctr {
	out := make([]Ctr, 0, ctrCount)
	for c := 0; c < ctrCount; c++ {
		if s.counts[c] != 0 {
			out = append(out, Ctr(c))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// String renders "name=value" pairs sorted by name.
func (s *CounterSet) String() string {
	var b strings.Builder
	for i, c := range s.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c, s.counts[c])
	}
	return b.String()
}

// Metrics aggregates the manager's observable outcomes. It is a bus
// subscriber: construct it with newMetrics and it stays current as the
// control plane publishes.
type Metrics struct {
	Counter *CounterSet
	// Drops lists dropped connection IDs in order.
	Drops []string
}

// newMetrics subscribes a fresh metrics aggregate to the bus, one typed
// handler per kind it counts.
func newMetrics(bus *eventbus.Bus) *Metrics {
	m := &Metrics{Counter: newCounterSet()}
	eventbus.On(bus, func(eventbus.ConnectionRequested) { m.Counter.inc(CtrNewRequested) })
	eventbus.On(bus, func(eventbus.ConnectionAdmitted) { m.Counter.inc(CtrNewAdmitted) })
	eventbus.On(bus, func(eventbus.ConnectionBlocked) { m.Counter.inc(CtrNewBlocked) })
	eventbus.On(bus, func(eventbus.HandoffAttempt) { m.Counter.inc(CtrHandoffTried) })
	eventbus.On(bus, func(ev eventbus.HandoffOutcome) {
		if ev.Dropped {
			m.Counter.inc(CtrHandoffDropped)
			m.Drops = append(m.Drops, ev.Conn)
		} else {
			m.Counter.inc(CtrHandoffOK)
		}
	})
	eventbus.On(bus, func(eventbus.PoolClaim) { m.Counter.inc(CtrPoolClaims) })
	eventbus.On(bus, func(eventbus.AdvanceReservation) { m.Counter.inc(CtrAdvanceResv) })
	eventbus.On(bus, func(eventbus.BandwidthChange) { m.Counter.inc(CtrAdaptUpdates) })
	eventbus.On(bus, func(eventbus.FaultMessage) { m.Counter.inc(CtrFaultsInjected) })
	eventbus.On(bus, func(eventbus.FaultComponent) { m.Counter.inc(CtrFaultsInjected) })
	eventbus.On(bus, func(eventbus.ControlRetransmit) { m.Counter.inc(CtrRetransmits) })
	eventbus.On(bus, func(eventbus.HoldReclaimed) { m.Counter.inc(CtrReclaimedHolds) })
	eventbus.On(bus, func(ev eventbus.SetupShed) {
		if ev.Reason == "breaker-open" {
			m.Counter.inc(CtrBreakerFastFails)
		} else {
			m.Counter.inc(CtrShedSetups)
		}
	})
	eventbus.On(bus, func(ev eventbus.DegradeCascade) {
		if ev.Action == "degrade" {
			m.Counter.inc(CtrDegradeCascades)
		}
	})
	eventbus.On(bus, func(ev eventbus.BreakerState) {
		if ev.To == "open" {
			m.Counter.inc(CtrBreakerTrips)
		}
	})
	return m
}
