package testnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"armnet/internal/wire"
)

// hardenedNode binds one UDP node server and returns a client socket
// aimed at it plus a collector that shuts the server down and returns
// the node for counter inspection.
func hardenedNode(t *testing.T) (*net.UDPConn, func() *Node) {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind UDP on loopback: %v", err)
	}
	nodeCh := make(chan *Node, 1)
	go func() {
		defer pc.Close()
		n, err := ServeNodeUDP("core", pc)
		if err != nil {
			t.Errorf("node: %v", err)
		}
		nodeCh <- n
	}()
	client, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("dial node: %v", err)
	}
	return client, func() *Node {
		sendAcked(t, client, 99, wire.Shutdown{})
		client.Close()
		select {
		case n := <-nodeCh:
			return n
		case <-time.After(5 * time.Second):
			t.Fatal("server never exited after shutdown")
			return nil
		}
	}
}

// sendAcked sends one frame and requires the node to ack it with the
// matching sequence number.
func sendAcked(t *testing.T, client *net.UDPConn, seq uint32, m wire.Message) {
	t.Helper()
	frame, err := wire.AppendFrame(nil, seq, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := client.Write(frame); err != nil {
		t.Fatalf("send: %v", err)
	}
	buf := make([]byte, wire.MaxFrame)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	sz, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no ack for %s frame: %v", m.WireType(), err)
	}
	am, _, err := wire.Decode(buf[:sz])
	if err != nil {
		t.Fatalf("bad ack: %v", err)
	}
	ack, ok := am.(wire.Ack)
	if !ok || ack.AckSeq != seq {
		t.Fatalf("ack = %#v, want AckSeq %d", am, seq)
	}
}

// sendHostile sends one raw datagram and requires silence: a hostile
// datagram must not be acked — the sender sees it exactly like wire
// loss — and must not kill the serve loop.
func sendHostile(t *testing.T, client *net.UDPConn, payload []byte, what string) {
	t.Helper()
	if _, err := client.Write(payload); err != nil {
		t.Fatalf("send %s: %v", what, err)
	}
	buf := make([]byte, wire.MaxFrame)
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if sz, err := client.Read(buf); err == nil {
		t.Fatalf("%s datagram was acked (%d bytes back), want silence", what, sz)
	}
}

// TestUDPHostileDatagrams is the receive-path hardening check: an
// oversized datagram, a truncated frame, and pure garbage are each
// dropped and counted — never acked, never a panic — and the node
// keeps serving valid traffic afterwards.
func TestUDPHostileDatagrams(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	client, collect := hardenedNode(t)

	// A legal frame first, proving the path works before the abuse.
	sendAcked(t, client, 1, wire.Hello{})

	// Oversized: larger than any legal frame (a typical MTU-sized blast);
	// dropped before decoding even starts.
	sendHostile(t, client, make([]byte, 1500), "oversized")

	// Truncated: the first half of a well-formed commit frame. Decode
	// must reject it totally rather than read past the buffer.
	whole, err := wire.AppendFrame(nil, 2, wire.SignalCommit{Conn: "alice:0", Hop: 1, Bandwidth: 256e3})
	if err != nil {
		t.Fatal(err)
	}
	sendHostile(t, client, whole[:len(whole)/2], "truncated")

	// Garbage: in-bounds length, nonsense bytes.
	junk := bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 8)
	sendHostile(t, client, junk, "garbage")

	// An empty datagram is the degenerate truncation.
	sendHostile(t, client, nil, "empty")

	// The loop survived: valid traffic still flows and lands in state.
	sendAcked(t, client, 3, wire.SignalCommit{Conn: "alice:0", Hop: 1, Bandwidth: 256e3})

	n := collect()
	if n.Oversized != 1 {
		t.Errorf("Oversized = %d, want 1", n.Oversized)
	}
	if n.Malformed != 3 {
		t.Errorf("Malformed = %d, want 3 (truncated, garbage, empty)", n.Malformed)
	}
	// Hello + commit + shutdown processed; hostile datagrams excluded.
	if n.Received != 3 {
		t.Errorf("Received = %d, want 3", n.Received)
	}
	if len(n.mirror) != 1 || n.mirror["alice:0"] != 256000 {
		t.Errorf("mirror = %v, want [alice:0:256000]", n.mirror)
	}
}

// TestUDPOversizedBoundary pins the exact cap: a datagram of exactly
// MaxFrame bytes reaches the decoder (counted malformed here, since the
// padding breaks the frame), one byte more is dropped as oversized.
func TestUDPOversizedBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	client, collect := hardenedNode(t)

	atCap := make([]byte, wire.MaxFrame)
	sendHostile(t, client, atCap, "at-cap")
	overCap := make([]byte, wire.MaxFrame+1)
	sendHostile(t, client, overCap, "over-cap")

	n := collect()
	if n.Oversized != 1 {
		t.Errorf("Oversized = %d, want 1 (only the over-cap datagram)", n.Oversized)
	}
	if n.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1 (the at-cap datagram reached Decode)", n.Malformed)
	}
}
