package testnet

import (
	"fmt"
	"net"
	"sort"

	"armnet/internal/eventbus"
	"armnet/internal/obs/live"
	"armnet/internal/wire"
)

// Node is one testnet agent: it decodes every frame addressed to it,
// records a WireDelivery event on its own bus (serialized to a JSONL
// trace), and acks. Protocol state lives in the controller; the node
// mirrors delivery, which is exactly what the live-vs-sim diff needs.
//
// A node is single-threaded: the loopback fabric calls HandleFrame
// synchronously, and ServeUDP runs one read loop.
type Node struct {
	Name string
	// Received counts non-ack frames processed; Malformed counts frames
	// Decode rejected; Oversized counts datagrams larger than a legal
	// frame, dropped before decoding; Restarts counts crash recoveries.
	Received, Malformed, Oversized, Restarts int

	clk    eventbus.Clock
	bus    *eventbus.Bus
	rec    *eventbus.Recorder
	buf    eventbus.TraceBuffer
	ackSeq uint32
	ackBuf []byte

	// mirror is the node's copy of committed reservations crossing its
	// links (conn → bandwidth), maintained from commit/abort/resync
	// frames; lease holds the expiry instant of each mirrored entry in
	// the node's own clock coordinates. Entries whose lease lapses are
	// pruned silently — map iteration feeds no events, so pruning order
	// cannot leak into the trace.
	mirror map[string]float64
	lease  map[string]float64

	// obs, when armed via SetObs, records receive-side wire instruments;
	// nil costs one pointer check per frame.
	obs *live.NodeRecorder
}

// SetObs arms the node's live observability recorder (nil disarms). Set
// it before serving; the recorder itself is safe for concurrent scrape.
func (n *Node) SetObs(rec *live.NodeRecorder) { n.obs = rec }

// NewNode builds a node stamping its trace from the given clock — the
// shared simulator clock in loopback mode, the node's own wall clock in
// a live process.
func NewNode(name string, clk eventbus.Clock) *Node {
	n := &Node{
		Name:   name,
		clk:    clk,
		ackBuf: make([]byte, 0, wire.MaxFrame),
		mirror: make(map[string]float64),
		lease:  make(map[string]float64),
	}
	n.bus = eventbus.New(clk)
	n.rec = eventbus.AttachRecorder(n.bus, &n.buf)
	return n
}

// HandleFrame processes one datagram: decode, record, ack. The returned
// ack frame shares the node's buffer and is valid until the next call;
// shutdown reports whether the frame asked the node to exit.
func (n *Node) HandleFrame(frame []byte) (ack []byte, shutdown bool, err error) {
	m, seq, err := wire.Decode(frame)
	if err != nil {
		n.Malformed++
		n.obs.Malformed()
		return nil, false, err
	}
	n.obs.FrameRx(m.WireType(), len(frame))
	if _, isAck := m.(wire.Ack); !isAck {
		n.Received++
		proto, conn, hop := classify(m)
		eventbus.Pub(n.bus, eventbus.WireDelivery{
			Node: n.Name, Proto: proto, Type: m.WireType().String(),
			Conn: conn, Hop: hop, Bytes: len(frame),
		})
	}
	n.applyState(m)
	n.ackSeq++
	ack, err = wire.AppendFrame(n.ackBuf[:0], n.ackSeq, wire.Ack{AckSeq: seq})
	if err != nil {
		return nil, false, err
	}
	n.ackBuf = ack[:0]
	_, shutdown = m.(wire.Shutdown)
	return ack, shutdown, nil
}

// applyState folds a frame into the node's reservation mirror. Commit
// installs, abort removes, resync reinstalls after a restart, and a
// renewal pushes the lease deadline out. Expired leases are pruned
// first, so a connection whose controller vanished decays on its own.
func (n *Node) applyState(m wire.Message) {
	now := n.clk.Now()
	for conn, until := range n.lease {
		if until < now {
			delete(n.lease, conn)
			delete(n.mirror, conn)
		}
	}
	switch v := m.(type) {
	case wire.SignalCommit:
		n.mirror[v.Conn] = v.Bandwidth
	case wire.SignalAbort:
		delete(n.mirror, v.Conn)
		delete(n.lease, v.Conn)
	case wire.Resync:
		n.mirror[v.Conn] = v.Bandwidth
		n.lease[v.Conn] = now + v.TTL
	case wire.LeaseRenew:
		if v.Conn == "" {
			return // bare heartbeat
		}
		n.mirror[v.Conn] = v.Bandwidth
		n.lease[v.Conn] = now + v.TTL
	}
}

// Restart models a crash recovery: volatile reservation state is lost,
// counters and the trace buffer survive (they belong to the harness,
// not the node's RAM).
func (n *Node) Restart() {
	n.Restarts++
	n.obs.Restart()
	n.mirror = make(map[string]float64)
	n.lease = make(map[string]float64)
}

// Mirror returns the node's reservation mirror as sorted "conn=bw"
// strings — a deterministic snapshot for tests and audits.
func (n *Node) Mirror() []string {
	out := make([]string, 0, len(n.mirror))
	for conn, bw := range n.mirror {
		out = append(out, fmt.Sprintf("%s=%g", conn, bw))
	}
	sort.Strings(out)
	return out
}

// Trace returns the node's JSONL event trace, failing if the recorder
// latched a write or sequence error.
func (n *Node) Trace() ([]byte, error) {
	if err := n.rec.Err(); err != nil {
		return nil, err
	}
	return n.buf.Bytes(), nil
}

// ServeUDP answers frames on the socket until a Shutdown frame arrives
// or the socket fails. Hostile datagrams never stop the loop: oversized
// ones (larger than any legal frame) are counted and dropped before
// decoding, and malformed ones are counted and dropped by HandleFrame.
// Neither is acked, so a sender sees them exactly like wire loss.
func (n *Node) ServeUDP(pc *net.UDPConn) error {
	buf := make([]byte, wire.MaxFrame+1)
	for {
		sz, addr, err := pc.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		if sz > wire.MaxFrame {
			n.Oversized++
			n.obs.Oversized()
			continue
		}
		ack, shutdown, err := n.HandleFrame(buf[:sz])
		if err != nil {
			continue
		}
		if _, err := pc.WriteToUDP(ack, addr); err != nil {
			return fmt.Errorf("testnet: %s ack: %w", n.Name, err)
		}
		if shutdown {
			return nil
		}
	}
}

// classify maps a wire message to the protocol family and addressing the
// WireDelivery event records.
func classify(m wire.Message) (proto, conn string, hop int) {
	switch v := m.(type) {
	case wire.SignalSetup:
		return "signal", v.Conn, int(v.Hop)
	case wire.SignalCommit:
		return "signal", v.Conn, int(v.Hop)
	case wire.SignalAbort:
		return "signal", v.Conn, int(v.Hop)
	case wire.Advertise:
		return "maxmin", v.Conn, int(v.Hop)
	case wire.Update:
		return "maxmin", v.Conn, int(v.Hop)
	case wire.LeaseRenew:
		return "lease", v.Conn, 0
	case wire.Resync:
		return "lease", v.Conn, 0
	case wire.Hello:
		return "ctl", "", 0
	default:
		return "ctl", "", 0
	}
}
