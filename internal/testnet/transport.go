package testnet

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"armnet/internal/obs/live"
	"armnet/internal/wire"
)

// transport is the delivery fabric behind the protocol hook seams. Both
// implementations turn one hook call into one wire frame addressed to
// the agent owning the link the protocol named; they differ only in how
// the frame travels.
//
// Hop-level frames carry addressing (conn, hop, the connection's
// reserve bandwidth), not protocol internals: stamped rates live inside
// the controller's state machines, which the hook seam deliberately
// hides.
type transport interface {
	// SignalDeliver implements signal.Deliver.
	SignalDeliver(conn string, hop int, link string, commit bool) (drop bool, delay float64)
	// MaxminDeliver implements maxmin.Deliver.
	MaxminDeliver(conn string, hop int, link string, update bool) (drop bool, delay float64)
	// Abort mirrors a rollback sweep to the fabric (driven off the
	// controller's SignalAbort events, since rollbacks release state
	// locally rather than crossing the delivery seam); link is the one
	// connTable.abortLink names.
	Abort(conn string, hop int, link, reason string)
	// Control sends one out-of-band controller frame (lease renewals,
	// resync state transfer, re-hello) to a named agent and reports
	// whether it was acked. Control frames are addressed to an agent, not
	// a link.
	Control(agent string, m wire.Message) bool
	// Hello announces the controller to every agent; Shutdown asks the
	// agents to exit after acking.
	Hello() error
	Shutdown()
	// Sent counts payload frames delivered; Drops counts frames that
	// timed out unacked (always zero on loopback).
	Sent() int
	Drops() int
	// Errs reports fabric-level faults (encode failures, bad acks).
	Errs() []string
}

// conduit is what both fabrics share: the link-to-agent map, the
// connection records the signal frames read their reserve from, the
// frame sequence, the encode buffer, the counters and the observability
// hook. A fabric supplies carry, which moves one encoded frame to an
// agent and reports whether its ack came back.
type conduit struct {
	cluster *clusterNet
	conns   connTable
	carry   func(agent int, frame []byte) bool
	seq     uint32
	buf     []byte
	sent    int
	errs    []string
	// obs, when armed, records every frame handed to an agent; nil costs
	// one pointer check per send.
	obs *live.Controller
}

func newConduit(cluster *clusterNet, conns connTable) conduit {
	return conduit{cluster: cluster, conns: conns, buf: make([]byte, 0, wire.MaxFrame)}
}

func (c *conduit) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// deliver encodes m, carries it to agent and reports whether it was
// acked. It takes the concrete message, so a hop's frame is built on the
// stack: m is boxed only for an encode error or an armed obs hook.
func deliver[M wire.Message](c *conduit, agent int, m M) bool {
	c.seq++
	frame, err := wire.AppendFrame(c.buf[:0], c.seq, m)
	acked := false
	if err != nil {
		c.failf("encode %T: %v", m, err)
	} else {
		c.buf = frame[:0]
		if acked = c.carry(agent, frame); acked {
			c.sent++
		}
	}
	if c.obs != nil {
		c.obs.FrameTx(c.cluster.Names[agent], m, len(frame), acked)
	}
	return acked
}

// signal delivers one signal-plane hop crossing link: a setup on the
// forward pass, a commit confirmation on the reverse.
func (c *conduit) signal(conn string, i int, link string, commit bool) (acked bool) {
	reserve := c.conns.reserve(conn)
	if commit {
		return deliver(c, c.cluster.agent(link), wire.SignalCommit{Conn: conn, Hop: uint16(i), Bandwidth: reserve})
	}
	return deliver(c, c.cluster.agent(link), wire.SignalSetup{Conn: conn, Hop: uint16(i), Bandwidth: reserve})
}

// maxmin delivers one maxmin hop crossing link, an UPDATE or an
// ADVERTISE.
func (c *conduit) maxmin(conn string, i int, link string, update bool) (acked bool) {
	if update {
		return deliver(c, c.cluster.agent(link), wire.Update{Conn: conn, Hop: uint16(i)})
	}
	return deliver(c, c.cluster.agent(link), wire.Advertise{Conn: conn, Hop: uint16(i)})
}

func (c *conduit) Abort(conn string, i int, link, reason string) {
	deliver(c, c.cluster.agent(link), wire.SignalAbort{Conn: conn, Hop: uint16(i), Reason: reason})
}

func (c *conduit) Control(agent string, m wire.Message) bool {
	i, ok := c.cluster.index(agent)
	if !ok {
		c.failf("no node agent %q", agent)
		c.obs.FrameTx(agent, m, 0, false)
		return false
	}
	return deliver(c, i, m)
}

func (c *conduit) Sent() int      { return c.sent }
func (c *conduit) Errs() []string { return c.errs }

// loopbackTransport delivers frames by calling the in-process node
// agents directly: synchronous, zero added delay, no sockets. Running on
// the simulator clock it is fully deterministic, which makes it the CI
// fabric.
type loopbackTransport struct {
	conduit
	nodes []*Node // by agent index
	ack   wire.Frame
}

func newLoopback(cluster *clusterNet, conns connTable, nodes []*Node) *loopbackTransport {
	t := &loopbackTransport{conduit: newConduit(cluster, conns), nodes: nodes}
	t.carry = t.exchange
	return t
}

// exchange hands one frame to the agent and verifies the ack — always
// acked on the healthy loopback path; failures are latched as fabric
// errors.
func (t *loopbackTransport) exchange(agent int, frame []byte) bool {
	name := t.cluster.Names[agent]
	ack, _, err := t.nodes[agent].HandleFrame(frame)
	if err != nil {
		t.failf("%s rejected %s: %v", name, wire.Type(frame[3]), err)
		return false
	}
	if err := wire.DecodeFrame(ack, &t.ack); err != nil {
		t.failf("%s ack undecodable: %v", name, err)
		return false
	}
	if t.ack.Type != wire.TAck || t.ack.AckSeq != t.seq {
		t.failf("%s acked %s %d, want %d", name, t.ack.Type, t.ack.AckSeq, t.seq)
		return false
	}
	return true
}

func (t *loopbackTransport) SignalDeliver(conn string, hop int, link string, commit bool) (bool, float64) {
	t.signal(conn, hop, link, commit)
	return false, 0
}

func (t *loopbackTransport) MaxminDeliver(conn string, hop int, link string, update bool) (bool, float64) {
	t.maxmin(conn, hop, link, update)
	return false, 0
}

func (t *loopbackTransport) Hello() error {
	for i, name := range t.cluster.Names {
		deliver(&t.conduit, i, wire.Hello{Node: name})
	}
	return nil
}

func (t *loopbackTransport) Shutdown() {
	for i := range t.cluster.Names {
		deliver(&t.conduit, i, wire.Shutdown{})
	}
}

func (t *loopbackTransport) Drops() int { return 0 }

// udpTransport delivers frames as UDP datagrams and blocks for the ack;
// an unacked frame counts as dropped, which hands loss recovery to the
// protocols' own retransmission machinery — the same path the fault
// injector exercises in simulation. Peers are netip.AddrPort values,
// resolved once, so a round trip allocates no address.
type udpTransport struct {
	conduit
	pc    *net.UDPConn
	peers []netip.AddrPort // by agent index
	rbuf  []byte
	ack   wire.Frame
	drops int
}

// ackTimeout bounds the wait for a node ack; localhost round trips are
// microseconds, so this only matters under real loss.
const ackTimeout = 250 * time.Millisecond

// dialUDP opens the controller socket and resolves one peer address per
// agent. peers maps agent name → "host:port"; every cluster agent must
// be present.
func dialUDP(cluster *clusterNet, conns connTable, peers map[string]string) (*udpTransport, error) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("testnet: controller socket: %w", err)
	}
	t := &udpTransport{
		conduit: newConduit(cluster, conns), pc: pc,
		peers: make([]netip.AddrPort, len(cluster.Names)),
		rbuf:  make([]byte, wire.MaxFrame+1),
	}
	t.carry = t.exchange
	for i, name := range cluster.Names {
		addr, ok := peers[name]
		if !ok {
			pc.Close()
			return nil, fmt.Errorf("testnet: no address for agent %q", name)
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			pc.Close()
			return nil, fmt.Errorf("testnet: agent %q: %w", name, err)
		}
		// The resolver hands an IPv4 address back in its IPv6-mapped
		// form, which the IPv4 socket cannot send to: unmap it.
		ap := ua.AddrPort()
		t.peers[i] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return t, nil
}

// exchange transmits one frame and blocks for its ack; false means the
// ack never arrived within the timeout.
func (t *udpTransport) exchange(agent int, frame []byte) bool {
	name := t.cluster.Names[agent]
	if _, err := t.pc.WriteToUDPAddrPort(frame, t.peers[agent]); err != nil {
		t.failf("send to %s: %v", name, err)
		t.drops++
		return false
	}
	deadline := time.Now().Add(ackTimeout)
	for {
		if err := t.pc.SetReadDeadline(deadline); err != nil {
			t.failf("deadline: %v", err)
			t.drops++
			return false
		}
		sz, _, err := t.pc.ReadFromUDPAddrPort(t.rbuf)
		if err != nil {
			t.drops++
			return false
		}
		if wire.DecodeFrame(t.rbuf[:sz], &t.ack) != nil || t.ack.Type != wire.TAck {
			continue // garbage datagram
		}
		if t.ack.AckSeq == t.seq {
			return true
		}
		// A stale ack from an earlier timed-out frame: keep reading.
	}
}

func (t *udpTransport) SignalDeliver(conn string, hop int, link string, commit bool) (bool, float64) {
	return !t.signal(conn, hop, link, commit), 0
}

func (t *udpTransport) MaxminDeliver(conn string, hop int, link string, update bool) (bool, float64) {
	return !t.maxmin(conn, hop, link, update), 0
}

// Hello announces the controller to every agent, retrying while node
// processes come up.
func (t *udpTransport) Hello() error {
	const attempts = 40
	for i, name := range t.cluster.Names {
		ok := false
		for a := 0; a < attempts && !ok; a++ {
			ok = deliver(&t.conduit, i, wire.Hello{Node: name})
		}
		if !ok {
			return fmt.Errorf("testnet: agent %q never acked hello", name)
		}
	}
	return nil
}

func (t *udpTransport) Shutdown() {
	for i := range t.cluster.Names {
		for a := 0; a < 3; a++ {
			if deliver(&t.conduit, i, wire.Shutdown{}) {
				break
			}
		}
	}
	t.pc.Close()
}

func (t *udpTransport) Drops() int { return t.drops }
