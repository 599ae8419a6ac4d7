// Arena: the head-to-head strategy comparison. Every registered
// allocator/admitter pair runs the *identical* loaded campus workload —
// same seed, same mobility trace, same QoS demands — so the table's
// differences are attributable to the strategies alone. Table 2 + maxmin
// (the paper's own pair) buys the lowest handoff-drop rate and the
// highest committed utilization at the price of more blocking and an
// order of magnitude more control packets; the measurement-based
// admitter flips that trade, and ERICA cuts the packet budget without
// moving the admission outcomes.
package main

import (
	"fmt"
	"log"
	"os"

	"armnet"
)

func main() {
	fmt.Printf("registered allocators: %v\n", armnet.Allocators())
	fmt.Printf("registered admitters:  %v\n\n", armnet.Admitters())

	cfg := armnet.ArenaConfig{CampusConfig: armnet.CampusConfig{
		Seed:      1,
		Portables: 24,
		Duration:  900,
		// Demands that actually load the 1.6 Mb/s cells; an uncontended
		// workload renders every strategy identical.
		BMin: 256e3,
		BMax: 1.2e6,
	}}
	entries, err := armnet.RunArena(cfg)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(armnet.RenderArena(cfg, entries))

	best := entries[0]
	for _, e := range entries[1:] {
		if e.DropRate < best.DropRate ||
			(e.DropRate == best.DropRate && e.Control.Messages < best.Control.Messages) {
			best = e
		}
	}
	fmt.Printf("\nfewest dropped handoffs (control packets as tiebreak): %s\n", best.Pair.Label())
}
