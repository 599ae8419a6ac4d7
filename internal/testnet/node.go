package testnet

import (
	"fmt"
	"net"

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
	// frame is the decode target every datagram is read into; conns
	// interns the connection IDs its views name (see intern).
	frame wire.Frame
	conns map[string]string

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
		conns:  make(map[string]string),
		mirror: make(map[string]float64),
		lease:  make(map[string]float64),
	}
	n.bus = eventbus.New(clk)
	n.rec = eventbus.AttachRecorder(n.bus, &n.buf)
	return n
}

// HandleFrame processes one datagram: decode, record, ack. The returned
// ack frame shares the node's buffer and is valid until the next call;
// shutdown reports whether the frame asked the node to exit. A warm node
// allocates nothing per frame: the frame decodes into the node's own
// Frame, its connection ID is interned, the trace line is appended into
// the recorder's scratch and the ack into the node's buffer.
func (n *Node) HandleFrame(frame []byte) (ack []byte, shutdown bool, err error) {
	f := &n.frame
	if err := wire.DecodeFrame(frame, f); err != nil {
		n.Malformed++
		n.obs.Malformed()
		return nil, false, err
	}
	n.obs.FrameRx(f.Type, len(frame))
	conn := n.intern(f.Conn)
	if f.Type != wire.TAck {
		n.Received++
		proto, hop := classify(f)
		eventbus.Pub(n.bus, eventbus.WireDelivery{
			Node: n.Name, Proto: proto, Type: f.Type.String(),
			Conn: conn, Hop: hop, Bytes: len(frame),
		})
	}
	n.applyState(f, conn)
	n.ackSeq++
	ack, err = wire.AppendFrame(n.ackBuf[:0], n.ackSeq, wire.Ack{AckSeq: f.Seq})
	if err != nil {
		return nil, false, err
	}
	n.ackBuf = ack[:0]
	return ack, f.Type == wire.TShutdown, nil
}

// maxInterned bounds the intern table. A node sees the same few live
// connections frame after frame, so the table hits; a long-lived agent
// sees an unbounded stream of IDs over its life, so the table is
// cleared when it fills rather than grown.
const maxInterned = 4096

// intern returns the connection ID a frame's view spells as a string the
// node may keep: the table's copy when it has one (the lookup converts
// without allocating), else a fresh copy, remembered.
func (n *Node) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := n.conns[string(b)]; ok {
		return s
	}
	if len(n.conns) >= maxInterned {
		clear(n.conns)
	}
	s := string(b)
	n.conns[s] = s
	return s
}

// applyState folds a frame into the node's reservation mirror. Commit
// installs, abort removes, resync reinstalls after a restart, and a
// renewal pushes the lease deadline out. Expired leases are pruned
// first, so a connection whose controller vanished decays on its own.
func (n *Node) applyState(f *wire.Frame, conn string) {
	now := n.clk.Now()
	for c, until := range n.lease {
		if until < now {
			delete(n.lease, c)
			delete(n.mirror, c)
		}
	}
	switch f.Type {
	case wire.TSignalCommit:
		n.mirror[conn] = f.Bandwidth
	case wire.TSignalAbort:
		delete(n.mirror, conn)
		delete(n.lease, conn)
	case wire.TResync:
		n.mirror[conn] = f.Bandwidth
		n.lease[conn] = now + f.TTL
	case wire.TLeaseRenew:
		if conn == "" {
			return // bare heartbeat
		}
		n.mirror[conn] = f.Bandwidth
		n.lease[conn] = now + f.TTL
	}
}

// restart models a crash recovery: volatile reservation state is lost,
// counters and the trace buffer survive (they belong to the harness,
// not the node's RAM).
func (n *Node) restart() {
	n.Restarts++
	n.obs.Restart()
	n.mirror = make(map[string]float64)
	n.lease = make(map[string]float64)
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

// classify maps a decoded frame to the protocol family and hop the
// WireDelivery event records.
func classify(f *wire.Frame) (proto string, hop int) {
	switch f.Type {
	case wire.TSignalSetup, wire.TSignalCommit, wire.TSignalAbort:
		return "signal", int(f.Hop)
	case wire.TAdvertise, wire.TUpdate:
		return "maxmin", int(f.Hop)
	case wire.TLeaseRenew, wire.TResync:
		return "lease", 0
	default:
		return "ctl", 0
	}
}
