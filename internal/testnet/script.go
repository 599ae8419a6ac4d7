package testnet

import "armnet/internal/topology"

// Op enumerates scenario step kinds.
type Op int

const (
	// OpSetup admits a new connection from a wired host to a cell.
	OpSetup Op = iota
	// OpHandoff moves a live connection to a new cell: release the old
	// path, then re-admit on the new one with the handoff test.
	OpHandoff
	// OpClose releases a live connection.
	OpClose
	// OpCapacity changes a cell's wireless capacity (ledger + maxmin).
	OpCapacity
)

// Step is one timed scenario action.
type Step struct {
	// At is the step's offset from scenario start in seconds.
	At float64
	Op Op
	// Conn names the connection (setup/handoff/close).
	Conn string
	// Cell is the target cell (setup/handoff destination, capacity site).
	Cell topology.CellID
	// Host indexes the wired correspondent host (modulo available hosts).
	Host int
	// Min and Max are the requested bandwidth bounds (setup/handoff).
	Min, Max float64
	// Capacity is the new wireless capacity (OpCapacity).
	Capacity float64
}

// CampusScript is the canonical scenario every mode runs: five setups
// (one over-subscribed, exercising the end-to-end abort path), two
// handoffs, a wireless capacity drop, and two closes, on the BuildCampus
// topology. Steps are spaced far enough apart that no two signaling
// sessions overlap, keeping the wall-clock run's interleaving close to
// the simulator's.
func CampusScript() []Step {
	return []Step{
		{At: 0.05, Op: OpSetup, Conn: "alice:0", Cell: "off-1", Host: 0, Min: 256e3, Max: 1.2e6},
		{At: 0.15, Op: OpSetup, Conn: "bob:0", Cell: "off-2", Host: 0, Min: 256e3, Max: 1.0e6},
		{At: 0.25, Op: OpSetup, Conn: "carol:0", Cell: "off-2", Host: 1, Min: 200e3, Max: 800e3},
		{At: 0.35, Op: OpSetup, Conn: "dave:0", Cell: "off-3", Host: 1, Min: 300e3, Max: 1.4e6},
		// greedy asks for more than the 1.6 Mb/s air interface: the
		// forward pass rejects at the wireless hop and the rollback sweep
		// exercises the abort path end to end.
		{At: 0.45, Op: OpSetup, Conn: "greedy:0", Cell: "lounge", Host: 0, Min: 2e6, Max: 2e6},
		{At: 0.60, Op: OpHandoff, Conn: "alice:0", Cell: "cor-w1", Host: 0, Min: 256e3, Max: 1.2e6},
		{At: 0.80, Op: OpCapacity, Cell: "off-2", Capacity: 1.2e6},
		{At: 1.00, Op: OpClose, Conn: "bob:0"},
		{At: 1.20, Op: OpHandoff, Conn: "dave:0", Cell: "cor-e1", Host: 1, Min: 300e3, Max: 1.4e6},
		{At: 1.40, Op: OpClose, Conn: "carol:0"},
	}
}

// defaultHorizon leaves the protocols ample settle time after the last
// scripted step before the final audit.
const defaultHorizon = 3.0
