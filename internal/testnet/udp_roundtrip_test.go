package testnet

import (
	"net"
	"testing"

	"armnet/internal/clock"
	"armnet/internal/raceflag"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// udpPair dials a controller transport whose every agent is one
// in-process node serving on host loopback, and returns it with a
// closer that shuts the node down and closes both sockets.
func udpPair(tb testing.TB) (*udpTransport, func()) {
	tb.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Skipf("cannot bind UDP on loopback: %v", err)
	}
	env, err := topology.BuildCampus()
	if err != nil {
		tb.Fatal(err)
	}
	cluster := NewCluster(env)
	peers := make(map[string]string, len(cluster.Names))
	for _, name := range cluster.Names {
		peers[name] = pc.LocalAddr().String()
	}
	served := make(chan error, 1)
	go func() { served <- NewNode("core", clock.NewWall()).ServeUDP(pc) }()
	tr, err := dialUDP(cluster, connTable{}, peers)
	if err != nil {
		pc.Close()
		tb.Fatal(err)
	}
	return tr, func() {
		if !deliver(&tr.conduit, 0, wire.Shutdown{}) {
			tb.Error("shutdown frame unacked")
		}
		tr.pc.Close()
		if err := <-served; err != nil {
			tb.Errorf("node: %v", err)
		}
		pc.Close()
	}
}

// TestUDPRoundTripAllocFree pins the live wire path: a warm controller
// exchange against a ServeUDP node — encode, send, the node's read,
// decode, frame log and ack, the controller's read and ack check —
// allocates nothing per frame, counted process-wide, so the node's
// goroutine is included.
func TestUDPRoundTripAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	tr, closeAll := udpPair(t)
	defer closeAll()
	msg := wire.Advertise{Conn: "portable-17:2", Hop: 2}
	send := func() {
		if !deliver(&tr.conduit, 0, msg) {
			t.Fatal("frame unacked on host loopback")
		}
	}
	send() // warm: the node's interned conn and first log chunk
	if got := testing.AllocsPerRun(500, send); got != 0 {
		t.Fatalf("a UDP round trip allocates %v, want 0", got)
	}
	if len(tr.Errs()) != 0 || tr.Drops() != 0 {
		t.Fatalf("errs %v, drops %d", tr.Errs(), tr.Drops())
	}
}

// BenchmarkUDPRoundTrip measures one live frame on host loopback: the
// controller's encode, send and blocking ack wait around a ServeUDP
// node's read, frame log and ack — the per-hop cost the live plane adds.
func BenchmarkUDPRoundTrip(b *testing.B) {
	tr, closeAll := udpPair(b)
	defer closeAll()
	msg := wire.Advertise{Conn: "portable-17:2", Hop: 2}
	deliver(&tr.conduit, 0, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !deliver(&tr.conduit, 0, msg) {
			b.Fatal("frame unacked on host loopback")
		}
	}
}
