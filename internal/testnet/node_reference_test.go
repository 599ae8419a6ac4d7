package testnet

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"armnet/internal/eventbus"
	"armnet/internal/wire"
)

// refNode is Node's frame path as it was before the view decoder and the
// frame log: Decode into a boxed Message that owns its strings, a type
// switch to classify and to fold state, every lease ranged on every
// frame, and a WireDelivery published per frame on the node's own bus,
// whose recorder writes the trace as it goes. It is the oracle
// TestNodeMatchesReferenceNode holds Node to, nothing else uses it.
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

// restart loses the reservation state and keeps the trace, as Node's does.
func (n *refNode) restart() {
	n.mirror, n.lease = map[string]float64{}, map[string]float64{}
}

// trace is the recorder's output, or the error it latched.
func (n *refNode) trace() ([]byte, error) {
	if err := n.rec.Err(); err != nil {
		return nil, err
	}
	return n.buf.Bytes(), nil
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

// manualClock is a node clock the test sets by hand, so leases lapse
// mid-stream.
type manualClock struct{ t float64 }

func (c *manualClock) Now() float64 { return c.t }

// nodeStep is one input of the lockstep: the clock reading the frame
// arrives at, whether the node crashes and recovers just before it, and
// the frame.
type nodeStep struct {
	t       float64
	restart bool
	frame   []byte
}

// hostileConns are connection IDs every escape rule of the trace encoder
// has to handle: the quote and backslash, control bytes, the three bytes
// escaped for HTML, invalid UTF-8, the JavaScript line separators and
// plain multi-byte runes.
var hostileConns = []string{
	`p"1`, `p\1`, "p\x00\x01\x1f", "\b\f\n\r\t", "<p>&amp;", "\xff\xfe", "p\xe2\x80", "\u2028\u2029", "pé:日本", "\x7f",
}

// genSteps draws a loopback-shaped frame stream: hop frames of every
// protocol family for conns connections (one in 25 named by a hostile
// ID), lease renewals (some bare), resyncs, control frames, the odd ack,
// a few malformed frames and the odd restart. The clock mostly steps
// forward by tenths; one reading in 30 jumps below 1e-6 or past 1e21,
// where the trace spells it in exponent form.
func genSteps(rng *rand.Rand, n, conns int) []nodeStep {
	var steps []nodeStep
	t := 0.0
	for i := 0; i < n; i++ {
		conn := fmt.Sprintf("p%02d:%d", rng.Intn(conns), rng.Intn(3))
		if rng.Intn(25) == 0 {
			conn = hostileConns[rng.Intn(len(hostileConns))]
		}
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
		t += float64(rng.Intn(4)) / 10
		st := nodeStep{t: t, restart: rng.Intn(150) == 0, frame: frame}
		switch rng.Intn(30) {
		case 0:
			st.t = rng.Float64() * 1e-6
		case 1:
			st.t = (1 + rng.Float64()) * 1e21
		}
		steps = append(steps, st)
	}
	return steps
}

// sameFloats is maps.Equal with NaN equal to NaN: a lease renewed at a
// NaN clock reading holds a NaN deadline on both sides.
func sameFloats(a, b map[string]float64) bool {
	return maps.EqualFunc(a, b, func(x, y float64) bool { return x == y || x != x && y != y })
}

// traceDivergence compares Node's trace with the reference's, bytes and
// error, rendering Node's twice: Trace may be called again and again.
func traceDivergence(n *Node, ref *refNode) string {
	want, werr := ref.trace()
	for call := 1; call <= 2; call++ {
		got, err := n.Trace()
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			return fmt.Sprintf("Trace call %d: error %v, reference %v", call, err, werr)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-60)
			return fmt.Sprintf("Trace call %d: differs at byte %d: %q, reference %q", call, i,
				got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
		}
	}
	return ""
}

// nodeDivergence drives a Node and a refNode through one stream in
// lockstep and describes the first point at which they differ: in the
// ack, the shutdown flag, the error, the counters, the mirror or the
// lease map after any frame, or in the trace at checkpoints (every 37
// frames, or every sixteenth of a long stream) and at the end. Every frame arrives in one reused buffer, as
// from a transport, so a node keeping a view into it shows. poison, if
// set, runs on the Node first.
func nodeDivergence(steps []nodeStep, poison func(*Node)) string {
	clk := &manualClock{}
	n, ref := NewNode("west", clk), newRefNode("west", clk)
	if poison != nil {
		poison(n)
	}
	var frame []byte
	every := max(37, len(steps)/16)
	for i, st := range steps {
		if st.restart {
			n.restart()
			ref.restart()
		}
		clk.t = st.t
		frame = append(frame[:0], st.frame...)
		ack, shut, err := n.HandleFrame(frame)
		rack, rshut, rerr := ref.HandleFrame(frame)
		switch {
		case !bytes.Equal(ack, rack) || shut != rshut || (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error():
			return fmt.Sprintf("frame %d: ack %x %v %v, reference %x %v %v", i, ack, shut, err, rack, rshut, rerr)
		case n.Received != ref.received || n.Malformed != ref.malformed:
			return fmt.Sprintf("frame %d: counters %d/%d, reference %d/%d", i, n.Received, n.Malformed, ref.received, ref.malformed)
		case !sameFloats(n.mirror, ref.mirror) || !sameFloats(n.lease, ref.lease):
			return fmt.Sprintf("frame %d: mirror %v lease %v, reference %v %v", i, n.mirror, n.lease, ref.mirror, ref.lease)
		}
		if i%every == every-1 {
			if d := traceDivergence(n, ref); d != "" {
				return fmt.Sprintf("after frame %d: %s", i, d)
			}
		}
	}
	return traceDivergence(n, ref)
}

// TestNodeMatchesReferenceNode holds HandleFrame — the view decoder, the
// interned connection IDs, the Frame-typed classify, the lease floor of
// applyState and the frame log rendered at Trace — to the boxed-message,
// publishing node it replaced, over generated streams with hostile
// connection IDs, clock readings in both exponent ranges, restarts and
// malformed frames. A NaN or infinite reading must fail Trace with the
// reference recorder's error. And a node whose intern table hands back a
// stale entry must diverge, or the comparison is blind to interning.
func TestNodeMatchesReferenceNode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		steps := genSteps(rand.New(rand.NewSource(seed)), 400, 8)
		if d := nodeDivergence(steps, nil); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		steps := genSteps(rand.New(rand.NewSource(7)), 400, 8)
		for i := 200; i < 205; i++ {
			steps[i].t = bad
		}
		var n *Node
		if d := nodeDivergence(steps, func(nn *Node) { n = nn }); d != "" {
			t.Fatalf("clock reading %v: %s", bad, d)
		}
		if _, err := n.Trace(); err == nil {
			t.Fatalf("clock reading %v: Trace succeeded", bad)
		}
	}
	steps := genSteps(rand.New(rand.NewSource(1)), 400, 8)
	stale := func(n *Node) { n.conns["p03:1"] = "p05:1" }
	if nodeDivergence(steps, stale) == "" {
		t.Fatal("a node interning p03:1 as p05:1 matched the reference: the oracle cannot see the intern table")
	}
}

// TestNodeInternBounded feeds a node more distinct connection IDs than
// the intern table holds: the table never grows past its bound, and the
// trace is still the reference node's, though the table was cleared
// under records that name its entries.
func TestNodeInternBounded(t *testing.T) {
	steps := genSteps(rand.New(rand.NewSource(11)), 3*maxInterned, 1)
	for i := range steps { // every frame its own connection
		m, seq, err := wire.Decode(steps[i].frame)
		if err != nil {
			continue
		}
		if _, ok := m.(wire.Advertise); ok {
			steps[i].frame, _ = wire.Encode(seq, wire.Advertise{Conn: fmt.Sprintf("roamer-%d", i), Hop: 1})
		}
	}
	if d := nodeDivergence(steps, nil); d != "" {
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
