package testnet

import (
	"fmt"
	"math"
	"net"

	"armnet/internal/eventbus"
	"armnet/internal/obs/live"
	"armnet/internal/wire"
)

// Node is one testnet agent: it decodes every frame addressed to it,
// logs it, and acks. The log is the node's trace: one fixed-size record
// per non-ack frame, rendered as JSONL WireDelivery lines only when Trace
// is called. Protocol state lives in the controller; the node mirrors
// delivery, which is exactly what the live-vs-sim diff needs.
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
	log    frameLog
	ackSeq uint32
	ackBuf []byte
	// frame is the decode target every datagram is read into; conns
	// interns the connection IDs its views name, and lastConn is the
	// last one interned (see intern).
	frame    wire.Frame
	conns    map[string]string
	lastConn string

	// mirror is the node's copy of committed reservations crossing its
	// links (conn → bandwidth), maintained from commit/abort/resync
	// frames; lease holds the expiry instant of each mirrored entry in
	// the node's own clock coordinates. Entries whose lease lapses are
	// pruned silently — map iteration feeds no events, so pruning order
	// cannot leak into the trace. leaseFloor is at most the earliest
	// deadline in lease (+Inf when none), so no lease can have lapsed
	// while the clock reads no later than it.
	mirror     map[string]float64
	lease      map[string]float64
	leaseFloor float64

	// obs, when armed via SetObs, records receive-side wire instruments;
	// nil costs one pointer check per frame.
	obs *live.NodeRecorder

	// enc and ev are Trace's encoder and the one event it refills per
	// record. They live here rather than on Trace's stack because the
	// encoder hands both to the event's own method, past what escape
	// analysis follows, so a local of Trace's would be allocated per call.
	enc eventbus.LineEncoder
	ev  eventbus.WireDelivery
}

// SetObs arms the node's live observability recorder (nil disarms). Set
// it before serving; the recorder itself is safe for concurrent scrape.
func (n *Node) SetObs(rec *live.NodeRecorder) { n.obs = rec }

// NewNode builds a node stamping its trace from the given clock — the
// shared simulator clock in loopback mode, the node's own wall clock in
// a live process.
func NewNode(name string, clk eventbus.Clock) *Node {
	n := &Node{
		Name:       name,
		clk:        clk,
		ackBuf:     make([]byte, 0, wire.MaxFrame),
		conns:      make(map[string]string),
		mirror:     make(map[string]float64),
		lease:      make(map[string]float64),
		leaseFloor: math.Inf(1),
	}
	return n
}

// HandleFrame processes one datagram: decode, log, ack. The returned ack
// frame shares the node's buffer and is valid until the next call;
// shutdown reports whether the frame asked the node to exit. A warm node
// allocates nothing per frame: the frame decodes into the node's own
// Frame, its connection ID is interned, its record fills a slot of the
// log's last chunk and the ack is appended into the node's buffer.
func (n *Node) HandleFrame(frame []byte) (ack []byte, shutdown bool, err error) {
	f := &n.frame
	if err := wire.DecodeFrame(frame, f); err != nil {
		n.Malformed++
		n.obs.Malformed()
		return nil, false, err
	}
	n.obs.FrameRx(f.Type, len(frame))
	conn := n.intern(f.Conn)
	now := n.clk.Now()
	if f.Type != wire.TAck {
		n.Received++
		n.log.append(frameRecord{t: now, conn: conn, typ: f.Type, hop: f.Hop, size: uint16(len(frame))})
	}
	n.applyState(f, conn, now)
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
// node may keep: the last frame's when it is the same (a protocol's hops
// reach a node back to back, so it mostly is), else the table's copy when
// it has one (the lookup converts without allocating), else a fresh copy,
// remembered.
func (n *Node) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if string(b) == n.lastConn {
		return n.lastConn
	}
	s, ok := n.conns[string(b)]
	if !ok {
		if len(n.conns) >= maxInterned {
			clear(n.conns)
		}
		s = string(b)
		n.conns[s] = s
	}
	n.lastConn = s
	return s
}

// applyState folds a frame into the node's reservation mirror. Commit
// installs, abort removes, resync reinstalls after a restart, and a
// renewal pushes the lease deadline out. Expired leases are pruned
// first, so a connection whose controller vanished decays on its own;
// the map is ranged only once the clock has passed leaseFloor.
func (n *Node) applyState(f *wire.Frame, conn string, now float64) {
	if now > n.leaseFloor {
		n.leaseFloor = math.Inf(1)
		for c, until := range n.lease {
			if until < now {
				delete(n.lease, c)
				delete(n.mirror, c)
			} else if until < n.leaseFloor {
				n.leaseFloor = until
			}
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
		n.setLease(conn, now+f.TTL)
	case wire.TLeaseRenew:
		if conn == "" {
			return // bare heartbeat
		}
		n.mirror[conn] = f.Bandwidth
		n.setLease(conn, now+f.TTL)
	}
}

// setLease sets conn's lease deadline, lowering leaseFloor to it when it
// is the earliest. A NaN deadline never lapses (nothing is below it), so
// it leaves the floor alone.
func (n *Node) setLease(conn string, until float64) {
	n.lease[conn] = until
	if until < n.leaseFloor {
		n.leaseFloor = until
	}
}

// restart models a crash recovery: volatile reservation state is lost,
// counters and the frame log survive (they belong to the harness, not
// the node's RAM), so the trace's seq runs on across the restart.
func (n *Node) restart() {
	n.Restarts++
	n.obs.Restart()
	n.mirror = make(map[string]float64)
	n.lease = make(map[string]float64)
	n.leaseFloor = math.Inf(1)
}

// Trace renders the frame log as the node's JSONL trace: record i is the
// WireDelivery line with seq i+1, through eventbus's own encoder, so the
// bytes are those a recorder on a bus of the node's would write. The
// output is sized by a first pass and allocated once; the node's one
// WireDelivery is refilled in place for every record of both passes. A
// non-finite clock reading fails the render with the error that recorder
// would latch.
func (n *Node) Trace() ([]byte, error) {
	enc, ev := &n.enc, &n.ev
	*ev = eventbus.WireDelivery{Node: n.Name}
	size, seq := 0, uint64(0)
	for _, c := range n.log.chunks {
		for i := range c {
			seq++
			c[i].fill(ev)
			size += eventbus.LineLen(enc, seq, c[i].t, ev)
		}
	}
	out := make([]byte, 0, size)
	seq = 0
	for _, c := range n.log.chunks {
		for i := range c {
			seq++
			c[i].fill(ev)
			var err error
			if out, err = eventbus.AppendLine(enc, out, seq, c[i].t, ev); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// fill makes ev, which names the node, the trace event r stands for.
func (r *frameRecord) fill(ev *eventbus.WireDelivery) {
	ev.Proto, ev.Hop = classify(r.typ, r.hop)
	ev.Type, ev.Conn, ev.Bytes = r.typ.String(), r.conn, int(r.size)
}

// ServeUDP answers frames on the socket until a Shutdown frame arrives
// or the socket fails. Hostile datagrams never stop the loop: oversized
// ones (larger than any legal frame) are counted and dropped before
// decoding, and malformed ones are counted and dropped by HandleFrame.
// Neither is acked, so a sender sees them exactly like wire loss. The
// sender's address comes back as a netip.AddrPort value, so a frame and
// its ack allocate nothing.
func (n *Node) ServeUDP(pc *net.UDPConn) error {
	buf := make([]byte, wire.MaxFrame+1)
	for {
		sz, addr, err := pc.ReadFromUDPAddrPort(buf)
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
		if _, err := pc.WriteToUDPAddrPort(ack, addr); err != nil {
			return fmt.Errorf("testnet: %s ack: %w", n.Name, err)
		}
		if shutdown {
			return nil
		}
	}
}

// classify maps a frame's type and hop field to the protocol family and
// hop its WireDelivery line records.
func classify(typ wire.Type, frameHop uint16) (proto string, hop int) {
	switch typ {
	case wire.TSignalSetup, wire.TSignalCommit, wire.TSignalAbort:
		return "signal", int(frameHop)
	case wire.TAdvertise, wire.TUpdate:
		return "maxmin", int(frameHop)
	case wire.TLeaseRenew, wire.TResync:
		return "lease", 0
	default:
		return "ctl", 0
	}
}

// frameRecord is one logged frame: what its trace line needs, in 32
// bytes. conn is the interned string, which the node owns: never a view
// of the frame, whose buffer the transport reuses, and never a slot of
// the intern table, which is cleared when full.
type frameRecord struct {
	t    float64
	conn string
	typ  wire.Type
	hop  uint16
	size uint16 // frame length; a frame is at most wire.MaxFrame bytes
}

const (
	// A chunk starts at 4 KiB of records, TraceBuffer's smallest chunk,
	// so a stand-up run pays no more, and stops growing at 1 MiB.
	minLogChunk = 128
	maxLogChunk = 1 << 15
)

// frameLog is the node's append-only list of frame records. Like
// eventbus.TraceBuffer it never moves a record once written: each new
// chunk is as large as everything logged before it, between minLogChunk
// and maxLogChunk records, so an append never copies history while the
// node's goroutine (or the wall clock's lock) waits.
type frameLog struct {
	chunks [][]frameRecord
	n      int
}

func (l *frameLog) append(r frameRecord) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]frameRecord, 0, min(max(l.n, minLogChunk), maxLogChunk)))
		last++
	}
	l.chunks[last] = append(l.chunks[last], r)
	l.n++
}
