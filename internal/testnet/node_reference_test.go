package testnet

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/wire"
)

// refNode is Node's frame path as it was before the view decoder: Decode
// into a boxed Message that owns its strings, a type switch to classify
// and to fold state. It is the oracle TestNodeMatchesReferenceNode holds
// Node to, nothing else uses it.
type refNode struct {
	name                string
	received, malformed int
	clk                 eventbus.Clock
	bus                 *eventbus.Bus
	rec                 *eventbus.Recorder
	buf                 eventbus.TraceBuffer
	ackSeq              uint32
	mirror, lease       map[string]float64
}

func newRefNode(name string, clk eventbus.Clock) *refNode {
	n := &refNode{name: name, clk: clk, mirror: map[string]float64{}, lease: map[string]float64{}}
	n.bus = eventbus.New(clk)
	n.rec = eventbus.AttachRecorder(n.bus, &n.buf)
	return n
}

func (n *refNode) HandleFrame(frame []byte) (ack []byte, shutdown bool, err error) {
	m, seq, err := wire.Decode(frame)
	if err != nil {
		n.malformed++
		return nil, false, err
	}
	if _, isAck := m.(wire.Ack); !isAck {
		n.received++
		proto, conn, hop := refClassify(m)
		eventbus.Pub(n.bus, eventbus.WireDelivery{
			Node: n.name, Proto: proto, Type: m.WireType().String(),
			Conn: conn, Hop: hop, Bytes: len(frame),
		})
	}
	n.applyState(m)
	n.ackSeq++
	ack, err = wire.Encode(n.ackSeq, wire.Ack{AckSeq: seq})
	if err != nil {
		return nil, false, err
	}
	_, shutdown = m.(wire.Shutdown)
	return ack, shutdown, nil
}

func (n *refNode) applyState(m wire.Message) {
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
			return
		}
		n.mirror[v.Conn] = v.Bandwidth
		n.lease[v.Conn] = now + v.TTL
	}
}

func refClassify(m wire.Message) (proto, conn string, hop int) {
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
	default:
		return "ctl", "", 0
	}
}

// manualClock is a node clock the test steps by hand, so leases lapse
// mid-stream.
type manualClock struct{ t float64 }

func (c *manualClock) Now() float64 { return c.t }

// genFrames draws a loopback-shaped frame stream: hop frames of every
// protocol family for conns connections, lease renewals (some bare),
// resyncs, control frames, the odd ack and a few malformed frames, with
// the clock step to apply before each.
func genFrames(rng *rand.Rand, n, conns int) (frames [][]byte, steps []float64) {
	for i := 0; i < n; i++ {
		conn := fmt.Sprintf("p%02d:%d", rng.Intn(conns), rng.Intn(3))
		hop, bw := uint16(rng.Intn(12)), float64(rng.Intn(2000))*1e3
		ttl := float64(rng.Intn(40)) / 20
		var m wire.Message
		switch k := rng.Intn(20); {
		case k < 5:
			m = wire.Advertise{Conn: conn, Hop: hop, Round: uint16(rng.Intn(4))}
		case k < 8:
			m = wire.Update{Conn: conn, Hop: hop, Rate: bw}
		case k < 10:
			m = wire.SignalSetup{Conn: conn, Hop: hop, Bandwidth: bw}
		case k < 12:
			m = wire.SignalCommit{Conn: conn, Hop: hop, Bandwidth: bw}
		case k < 13:
			m = wire.SignalAbort{Conn: conn, Hop: hop, Reason: "hop-rejected"}
		case k < 15:
			m = wire.LeaseRenew{Conn: conn, Bandwidth: bw, TTL: ttl}
		case k < 16:
			m = wire.LeaseRenew{TTL: ttl}
		case k < 17:
			m = wire.Resync{Conn: conn, Bandwidth: bw, TTL: ttl}
		case k < 18:
			m = []wire.Message{wire.Hello{Node: "core"}, wire.Shutdown{}, wire.Ack{AckSeq: uint32(i)}}[rng.Intn(3)]
		default:
			m = wire.Update{Conn: conn, Hop: hop}
		}
		frame, err := wire.Encode(uint32(i+1), m)
		if err != nil {
			panic(err)
		}
		if rng.Intn(40) == 0 {
			frame = frame[:rng.Intn(len(frame))] // malformed: truncated
		}
		frames = append(frames, frame)
		steps = append(steps, float64(rng.Intn(4))/10)
	}
	return frames, steps
}

// nodeDivergence drives a Node and a refNode through one stream in
// lockstep and describes the first frame after which they differ: in
// the ack, the shutdown flag, the error, the counters, the trace, the
// mirror or the lease map. Every frame arrives in one reused buffer, as
// from a transport, so a node keeping a view into it shows. poison, if
// set, runs on the Node first.
func nodeDivergence(frames [][]byte, steps []float64, poison func(*Node)) string {
	clk := &manualClock{}
	n, ref := NewNode("west", clk), newRefNode("west", clk)
	if poison != nil {
		poison(n)
	}
	var frame []byte
	for i := range frames {
		clk.t += steps[i]
		frame = append(frame[:0], frames[i]...)
		ack, shut, err := n.HandleFrame(frame)
		rack, rshut, rerr := ref.HandleFrame(frame)
		switch {
		case !bytes.Equal(ack, rack) || shut != rshut || (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error():
			return fmt.Sprintf("frame %d: ack %x %v %v, reference %x %v %v", i, ack, shut, err, rack, rshut, rerr)
		case n.Received != ref.received || n.Malformed != ref.malformed:
			return fmt.Sprintf("frame %d: counters %d/%d, reference %d/%d", i, n.Received, n.Malformed, ref.received, ref.malformed)
		case !bytes.Equal(n.buf.Bytes(), ref.buf.Bytes()):
			return fmt.Sprintf("frame %d: trace line %q, reference %q", i, n.buf.Bytes(), ref.buf.Bytes())
		case !maps.Equal(n.mirror, ref.mirror) || !maps.Equal(n.lease, ref.lease):
			return fmt.Sprintf("frame %d: mirror %v lease %v, reference %v %v", i, n.mirror, n.lease, ref.mirror, ref.lease)
		}
		// Each frame's line is compared alone; the recorders' sequence
		// audit and clock memo live on, so the stream is still one trace.
		n.buf.Reset()
		ref.buf.Reset()
	}
	if err := n.rec.Err(); err != nil {
		return err.Error()
	}
	return ""
}

// TestNodeMatchesReferenceNode holds HandleFrame — the view decoder, the
// interned connection IDs, the Frame-typed classify and applyState — to
// the boxed-message node it replaced, frame by frame over generated
// streams; and a node whose intern table hands back a stale entry must
// diverge, or the comparison is blind to interning.
func TestNodeMatchesReferenceNode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		frames, steps := genFrames(rand.New(rand.NewSource(seed)), 400, 8)
		if d := nodeDivergence(frames, steps, nil); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	frames, steps := genFrames(rand.New(rand.NewSource(1)), 400, 8)
	stale := func(n *Node) { n.conns["p03:1"] = "p05:1" }
	if nodeDivergence(frames, steps, stale) == "" {
		t.Fatal("a node interning p03:1 as p05:1 matched the reference: the oracle cannot see the intern table")
	}
}

// TestNodeInternBounded feeds a node more distinct connection IDs than
// the intern table holds: the table never grows past its bound, and the
// trace is still the reference node's, frame for frame.
func TestNodeInternBounded(t *testing.T) {
	frames, steps := genFrames(rand.New(rand.NewSource(11)), 3*maxInterned, 1)
	for i := range frames { // every frame its own connection
		m, seq, err := wire.Decode(frames[i])
		if err != nil {
			continue
		}
		if _, ok := m.(wire.Advertise); ok {
			frames[i], _ = wire.Encode(seq, wire.Advertise{Conn: fmt.Sprintf("roamer-%d", i), Hop: 1})
		}
	}
	if d := nodeDivergence(frames, steps, nil); d != "" {
		t.Fatal(d)
	}
	n := NewNode("west", &manualClock{})
	peak := 0
	for i := 0; i < 2*maxInterned+100; i++ {
		frame, _ := wire.Encode(uint32(i+1), wire.Advertise{Conn: fmt.Sprintf("roamer-%d", i), Hop: 1})
		if _, _, err := n.HandleFrame(frame); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(n.conns))
	}
	if peak != maxInterned {
		t.Fatalf("intern table peaked at %d entries, want the bound %d", peak, maxInterned)
	}
}
