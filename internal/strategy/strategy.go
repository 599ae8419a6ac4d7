// Package strategy is the roster of resource-management rivals the
// arena races against the paper's own algorithms. A rival is one of two
// things:
//
//   - a rate allocator is a maxmin.SwitchRule: every allocator is the
//     paper's §5.3.1 ADVERTISE/UPDATE session, and the rule decides what
//     each switch offers. "maxmin" is the paper's rule; "erica" (an
//     ABR-style fair-share rule after Fahmy & Jain) and "logweight"
//     (Robert & Véber's log-weighted proportional sharing) weight the
//     same session;
//   - an admitter is an admission.Admitter: "table2" is the paper's
//     Table 2 round-trip test, the *admission.Controller itself, and
//     "measured" is a capacity-region-free measurement-based test after
//     Jaramillo & Ying.
//
// Both tables are fixed at compile time, so lookups are safe from
// concurrent replications, and sim.RunArena races named pairs
// head-to-head over the identical seeded workload.
package strategy

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/sortx"
)

// Default strategy names: the paper's own algorithms.
const (
	DefaultAllocator = "maxmin"
	DefaultAdmitter  = "table2"
)

// rules are the allocators by name.
var rules = map[string]maxmin.SwitchRule{
	maxmin.Paper.Name: maxmin.Paper,
	erica.Name:        erica,
	logweight.Name:    logweight,
}

// admitters build each admitter over the shared ledger; its decisions
// are published on bus (nil publishes nothing).
var admitters = map[string]func(lg *admission.Ledger, bus *eventbus.Bus) admission.Admitter{
	DefaultAdmitter: func(lg *admission.Ledger, bus *eventbus.Bus) admission.Admitter {
		c := admission.NewController(lg)
		c.Bus = bus
		return c
	},
	"measured": func(lg *admission.Ledger, bus *eventbus.Bus) admission.Admitter {
		return &measuredAdmitter{lg: lg, bus: bus}
	},
}

var (
	_ admission.Admitter = (*admission.Controller)(nil)
	_ admission.Admitter = (*measuredAdmitter)(nil)
)

// Rule returns the named allocator's switch rule ("" selects the
// default).
func Rule(name string) (maxmin.SwitchRule, error) {
	if name == "" {
		name = DefaultAllocator
	}
	r, ok := rules[name]
	if !ok {
		return maxmin.SwitchRule{}, fmt.Errorf("strategy: unknown allocator %q (have: %v)", name, Allocators())
	}
	return r, nil
}

// NewAdmitter builds the named admitter ("" selects the default).
func NewAdmitter(name string, lg *admission.Ledger, bus *eventbus.Bus) (admission.Admitter, error) {
	if name == "" {
		name = DefaultAdmitter
	}
	f, ok := admitters[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown admitter %q (have: %v)", name, Admitters())
	}
	return f(lg, bus), nil
}

// Allocators lists the allocator names, sorted.
func Allocators() []string { return sortx.Keys(rules) }

// Admitters lists the admitter names, sorted.
func Admitters() []string { return sortx.Keys(admitters) }
