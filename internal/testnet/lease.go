package testnet

import (
	"armnet/internal/eventbus"
	"armnet/internal/wire"
)

// leaseConfig arms hold-lease renewal over the wire. Every Period the
// controller sends each agent a LeaseRenew frame per live connection
// routed over the agent's links (a bare heartbeat when none is); an
// agent that misses MissBudget consecutive rounds is declared dead and
// its connections' reservations are reclaimed — released back to the
// ledger instead of leaking behind a crashed or partitioned node. A
// dead agent that acks again is resynced (re-LISTEN state transfer)
// before it is trusted.
type leaseConfig struct {
	// Period is the renewal interval in scenario seconds; ≤0 disables
	// the lease machinery entirely.
	Period float64
	// MissBudget is how many consecutive failed rounds kill an agent
	// (≤0 → defaultMissBudget).
	MissBudget int
}

// defaultMissBudget is the consecutive-miss threshold when leaseConfig
// leaves it zero.
const defaultMissBudget = 3

// ttl returns the lease duration granted per renewal: the full miss
// budget's worth of periods, so node-side decay and controller-side
// death detection agree on the horizon.
func (c leaseConfig) ttl() float64 { return c.Period * float64(c.missBudget()) }

func (c leaseConfig) missBudget() int {
	if c.MissBudget <= 0 {
		return defaultMissBudget
	}
	return c.MissBudget
}

// leaseManager runs the renewal rounds on the scenario clock. Agents
// are visited in the cluster's deterministic order and connections in
// sorted order, so the frame stream — and therefore the traces — are
// reproducible.
type leaseManager struct {
	cfg leaseConfig
	r   *runner
	// miss counts consecutive failed rounds per agent; dead marks agents
	// past the budget whose reservations were reclaimed.
	miss map[string]int
	dead map[string]bool
	// Reclaims counts connections torn down by lease expiry.
	Reclaims int
}

func newLeaseManager(cfg leaseConfig, r *runner) *leaseManager {
	return &leaseManager{
		cfg: cfg, r: r,
		miss: make(map[string]int),
		dead: make(map[string]bool),
	}
}

// tick runs one renewal round over every agent.
func (lm *leaseManager) tick() {
	ttl := lm.cfg.ttl()
	for _, agent := range lm.r.cluster.Names {
		conns := lm.r.connsVia(agent)
		ok := true
		if len(conns) == 0 {
			ok = lm.renew(agent, wire.LeaseRenew{TTL: ttl})
		} else {
			for _, conn := range conns {
				renew := wire.LeaseRenew{
					Conn: conn, Bandwidth: lm.r.conns.reserve(conn), TTL: ttl,
				}
				if !lm.renew(agent, renew) {
					ok = false
					break
				}
			}
		}
		if ok {
			lm.miss[agent] = 0
			if lm.dead[agent] {
				delete(lm.dead, agent)
				lm.r.resyncAgent(agent, ttl)
			}
			continue
		}
		lm.miss[agent]++
		if lm.miss[agent] >= lm.cfg.missBudget() && !lm.dead[agent] {
			lm.dead[agent] = true
			lm.reclaim(agent)
		}
	}
}

// renew sends one renewal frame and records its round trip with the
// live observability layer (the RTT is zero in sim time on loopback —
// synchronous delivery — and the real ack wait on UDP).
func (lm *leaseManager) renew(agent string, m wire.LeaseRenew) bool {
	if lm.r.cfg.Obs == nil {
		return lm.r.tr.Control(agent, m)
	}
	start := lm.r.clk.Now()
	ok := lm.r.tr.Control(agent, m)
	lm.r.cfg.Obs.leaseRenew(agent, start, lm.r.clk.Now(), ok)
	return ok
}

// reclaim releases every live reservation routed over a dead agent's
// links: the ledger gets the bandwidth back, the rate protocol drops
// the connection, and a HoldReclaimed event records each reclamation in
// the controller trace.
func (lm *leaseManager) reclaim(agent string) {
	conns := lm.r.connsVia(agent)
	for _, conn := range conns {
		rec := lm.r.conns[conn]
		lm.r.cfg.Obs.leaseReclaim(conn)
		eventbus.Pub(lm.r.bus, eventbus.HoldReclaimed{
			Conn: conn, Link: "node:" + agent,
			Amount: rec.reserve, Reason: "wire-lease",
		})
		lm.r.lg.Release(conn, rec.route)
		lm.r.proto.RemoveConn(conn)
		rec.live = false
		lm.Reclaims++
	}
	if len(conns) > 0 {
		lm.r.proto.KickAll()
	}
}
