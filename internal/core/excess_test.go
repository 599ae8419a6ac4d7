package core

import (
	"errors"
	"fmt"
	"testing"

	"armnet/internal/des"
	"armnet/internal/mobility"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// TestProtocolCapacityLagsLedgerExcess pins the defect ROADMAP item 26
// names. adapt keeps a link's capacity in the rate protocol at the
// ledger's excess, max(0, ExcessAvailable()), but it resyncs only the
// links of a route its record joins or leaves (or that a capacity change
// or a link fault names): a multicast leg booked after the handoff's
// Join, or an advance reservation refreshed with no sync at all, leaves
// the protocol offering static connections bandwidth that is already
// booked. The bench's loaded campus walk (48 portables with one 128–512
// kb/s connection each, 60 s dwell, 900 s) runs through core's handles,
// and after every HandoffPortable each ledger link's protocol capacity is
// compared with the ledger's excess: on campus-walk seed 0, 23.8 % of
// those checks found the protocol above the ledger. The test asserts the
// lag still shows on at least a tenth of the checks; the change that
// mends item 26 makes it vanish and flips this test on purpose.
func TestProtocolCapacityLagsLedgerExcess(t *testing.T) {
	env, err := topology.BuildCampus()
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	m, err := NewManager(sim, env, Config{Seed: 1, Mode: ModePredictive})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("p%02d", i)
	}
	walk, err := mobility.RandomWalk(env.Universe, names, 60, 900, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	req := qos.Request{
		Bandwidth: qos.Bounds{Min: 128e3, Max: 512e3},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: 32e3, Rho: 128e3},
	}
	links := m.ledger.Links()
	checks, above, handoffs := 0, 0, 0
	fail := func(err error) {
		if err != nil && !errors.Is(err, ErrRejected) {
			t.Fatal(err)
		}
	}
	for _, mv := range walk.Moves {
		sim.Post(mv.Time, func() {
			if mv.From == "" {
				fail(m.PlacePortable(mv.Portable, mv.To))
				_, err := m.OpenConnection(mv.Portable, req)
				fail(err)
				return
			}
			fail(m.HandoffPortable(mv.Portable, mv.To))
			handoffs++
			capacity := m.Adpt.Alloc.Problem().Capacity
			for _, ls := range links {
				checks++
				if capacity[string(ls.Link.ID)] > max(0, ls.ExcessAvailable()) {
					above++
				}
			}
		})
	}
	if err := sim.RunUntil(900); err != nil {
		t.Fatal(err)
	}
	share := float64(above) / float64(checks)
	t.Logf("%d handoffs, %d link checks: the protocol's capacity exceeded the ledger's excess in %d (%.1f %%)",
		handoffs, checks, above, 100*share)
	if handoffs < 500 || share < 0.1 {
		t.Fatalf("the protocol lagged the ledger in %.1f %% of %d checks after %d handoffs, want at least 10 %% until item 26 is mended",
			100*share, checks, handoffs)
	}
}
