// Package strategy carves the paper's hard-wired resource-management
// algorithms into pluggable seams. Two interfaces cover the decisions
// the core connection lifecycle delegates:
//
//   - Allocator: how excess bandwidth is (re)distributed among admitted
//     connections — the paper's §5.3.1 distributed maxmin
//     ADVERTISE/UPDATE protocol is the default implementation;
//   - Admitter: whether a connection may be admitted and how much is
//     committed — the paper's Table 2 round-trip test is the default.
//
// Rival strategies from the related work register themselves under
// stable names ("erica", an ABR-style fair-share switch rule after
// Fahmy & Jain, and "logweight", Robert & Véber's log-weighted
// proportional sharing — each a weight on the paper's maxmin session,
// so every allocator is one maxmin.Protocol under some SwitchRule;
// "measured", a capacity-region-free measurement-based admitter after
// Jaramillo & Ying), and sim.RunArena races registered pairs
// head-to-head over the identical seeded workload.
//
// The registry is populated at init time and read-only afterwards, so
// lookups are safe from concurrent replications. The default pair is
// behavior-preserving by construction: it routes every call to the same
// concrete code paths core used before the seam existed, keeping event
// traces byte-identical.
package strategy

import (
	"fmt"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/sortx"
)

// Session is one adaptable connection registered with an Allocator: its
// link path and the excess demand (b_max - b_min) it can absorb.
type Session struct {
	ID     string
	Path   []string
	Demand float64
}

// LinkBottleneck reports the size of one link's bottleneck set — the
// observability tap behind the obs maxmin instruments. Allocators
// without a bottleneck-set notion return nil.
type LinkBottleneck struct {
	Link string
	Size int
}

// ControlStats counts an allocator's control-plane work: the currency of
// the arena's overhead comparison.
type ControlStats struct {
	// Messages is the control-packet hop count (ADVERTISE + UPDATE).
	Messages int
	// Sessions counts adaptation sessions started.
	Sessions int
	// Retransmits counts control sweeps resent after a loss.
	Retransmits int
	// Readvertises counts connections kicked by periodic repair.
	Readvertises int
}

// Allocator is the rate-allocation strategy seam. Implementations run
// on a clock.Clock, must be deterministic (sorted iteration, no wall
// clock read outside it, no map-order publishes), and commit rate
// changes through the OnUpdate callback; the adaptation layer turns
// those into ledger allocations.
type Allocator interface {
	// Name is the registry name ("maxmin", "erica", ...).
	Name() string
	// AddLink registers a link with its current excess capacity.
	AddLink(name string, capacity float64) error
	// AddSession registers an adaptable connection.
	AddSession(s Session) error
	// RemoveSession drops a connection and frees its recorded state.
	RemoveSession(id string)
	// Kick starts an adaptation session for one connection (connection
	// setup, degrade restore). Reports whether a session started.
	Kick(id string) bool
	// CapacityChanged tells the allocator a link's excess capacity
	// changed (eq. 2 trigger); returns the number of sessions started.
	CapacityChanged(link string, capacity float64) (int, error)
	// Rates returns the currently committed excess rate per connection.
	Rates() map[string]float64
	// Bottlenecks exports per-link bottleneck-set sizes, or nil.
	Bottlenecks() []LinkBottleneck
	// Stats returns the control-plane work counters.
	Stats() ControlStats
	// SetOnUpdate installs the committed-rate observer. Must be set
	// before the first session runs.
	SetOnUpdate(fn func(conn string, rate float64))
	// SetBus installs the event bus for AdaptationRound / converged /
	// retransmit events. A nil bus publishes nothing.
	SetBus(bus *eventbus.Bus)
}

// Admitter is the admission-control strategy seam: the atomic test-and-
// commit every new connection, handoff, and renegotiation goes through.
// Implementations book committed allocations into the shared admission
// ledger (the single source of truth the allocators, the overload
// controller, and the auditors all read), so the conservation invariants
// of faults.Auditor hold under any strategy.
type Admitter interface {
	// Name is the registry name ("table2", "measured", ...).
	Name() string
	// Admit runs the full admission round trip. On success the
	// connection's allocation is committed to every link of the route;
	// on failure no state changes.
	Admit(t admission.Test) (admission.Result, error)
}

// AllocatorFactory builds an Allocator over a simulator. The maxmin
// protocol options double as the generic control-plane tuning knobs
// (hop delay, δ threshold, retry budget, fault-delivery hook, periodic
// repair), which every allocator honors.
type AllocatorFactory func(sim *des.Simulator, opts maxmin.ProtocolOptions) Allocator

// AdmitterFactory builds an Admitter over the shared ledger; decisions
// are published on the bus (nil publishes nothing).
type AdmitterFactory func(lg *admission.Ledger, bus *eventbus.Bus) Admitter

// Default strategy names: the paper's own algorithms.
const (
	DefaultAllocator = "maxmin"
	DefaultAdmitter  = "table2"
)

var (
	allocators = map[string]AllocatorFactory{}
	admitters  = map[string]AdmitterFactory{}
)

// RegisterAllocator installs an allocator factory under a name.
// Duplicate names panic: registration is an init-time programming act.
func RegisterAllocator(name string, f AllocatorFactory) {
	if name == "" || f == nil {
		panic("strategy: empty allocator registration")
	}
	if _, ok := allocators[name]; ok {
		panic("strategy: duplicate allocator " + name)
	}
	allocators[name] = f
}

// RegisterAdmitter installs an admitter factory under a name.
func RegisterAdmitter(name string, f AdmitterFactory) {
	if name == "" || f == nil {
		panic("strategy: empty admitter registration")
	}
	if _, ok := admitters[name]; ok {
		panic("strategy: duplicate admitter " + name)
	}
	admitters[name] = f
}

// NewAllocator builds the named allocator ("" selects the default).
func NewAllocator(name string, sim *des.Simulator, opts maxmin.ProtocolOptions) (Allocator, error) {
	if name == "" {
		name = DefaultAllocator
	}
	f, ok := allocators[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown allocator %q (have: %v)", name, Allocators())
	}
	return f(sim, opts), nil
}

// NewAdmitter builds the named admitter ("" selects the default).
func NewAdmitter(name string, lg *admission.Ledger, bus *eventbus.Bus) (Admitter, error) {
	if name == "" {
		name = DefaultAdmitter
	}
	f, ok := admitters[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown admitter %q (have: %v)", name, Admitters())
	}
	return f(lg, bus), nil
}

// Allocators lists the registered allocator names, sorted.
func Allocators() []string { return sortx.Keys(allocators) }

// Admitters lists the registered admitter names, sorted.
func Admitters() []string { return sortx.Keys(admitters) }
