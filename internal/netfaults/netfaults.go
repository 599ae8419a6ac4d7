// Package netfaults is the wire-plane front-end of internal/faults:
// where that package's Injector perturbs the *simulated* control plane
// through the protocol delivery hooks, netfaults perturbs the *wire* —
// the encoded frames the testnet transports carry between the
// controller and its node agents. Plan model, grammar, rule walk and
// `for`-expansion are internal/faults'; this package contributes the
// wire plane's parser entry points, its seed salt and the per-frame
// Injector.
//
// A wire plan is per-frame message rules (drop, dup, delay, reorder,
// each optionally restricted to one backbone link by `on <link>`) plus
// timed node faults: `partition` drops frames to an agent for a window,
// `crash` additionally wipes its mirrored state so it must be re-synced
// after restart. The harness schedules these on its scenario clock, so
// one plan runs on the simulator clock (deterministic loopback) and on
// wall time (UDP).
//
// A plan is parsed for exactly one plane. The simulated plane's
// component faults (link-down … crash-signaling) are line-numbered
// parse errors here, as reorder, `on <link>`, partition and crash are
// under faults.ParsePlan: a directive the executing plane cannot carry
// out is rejected, never skipped.
package netfaults

import (
	"io"
	"strings"

	"armnet/internal/faults"
)

// Plan is faults.Plan; the alias exists because the frozen bench/ module
// spells netfaults.Plan (drop it with the bench refresh, ROADMAP 5 (e)).
type Plan = faults.Plan

// ParsePlan reads a wire-plane plan in the faults.ParsePlan grammar.
func ParsePlan(r io.Reader) (*Plan, error) { return faults.ParseWirePlan(r) }

// ParsePlanString is ParsePlan over an in-memory spec.
func ParsePlanString(s string) (*Plan, error) {
	return ParsePlan(strings.NewReader(s))
}

// seedSalt decorrelates the wire injector's RNG from the simulation
// fault injector and the workload streams derived from the same master
// seed.
const seedSalt = 0x6e657466 // "netf"

// Injector evaluates a plan's message rules against frames. The
// loopback fabric is single-threaded on the simulator clock, so
// identical (plan, seed) pairs inject identically there; on the
// wall-clock UDP path calls are serialized by the wall lock but their
// order is scheduling-dependent, so UDP injection is
// random-but-unreproducible by design.
//
// A nil injector, or one built from an empty plan, decides every frame
// without drawing from the RNG and without allocating — the empty-plan
// live path stays zero-cost.
type Injector struct {
	// Walker carries the Drops, Dups, Delays and Reorders counters.
	faults.Walker
}

// NewInjector builds an injector for the plan's message rules. Timed
// node faults are scheduled by the harness (see Plan.Events); the
// injector only decides per-frame fates.
func NewInjector(plan *Plan, seed int64) *Injector {
	return &Injector{faults.NewWalker(plan, seed^seedSalt)}
}

// Frame decides the fate of one frame: proto is the protocol family
// ("signal" or "maxmin"; control frames like hello, lease renewals and
// resyncs are exempt from probabilistic rules), link is the backbone
// link the hop crosses.
func (in *Injector) Frame(proto, link string) faults.Verdict {
	if in == nil {
		return faults.Verdict{}
	}
	return in.Walk(proto, link, nil)
}
