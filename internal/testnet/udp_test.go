package testnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"armnet/internal/leakcheck"
)

// startNodes binds one UDP server per cluster agent on loopback
// addresses, returning the peer map and a collector that shuts the
// servers down and yields their traces.
func startNodes(t *testing.T, names []string) (map[string]string, func() map[string][]byte) {
	t.Helper()
	peers := make(map[string]string, len(names))
	nodes := make(map[string]*Node, len(names))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, name := range names {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("cannot bind UDP on loopback: %v", err)
		}
		peers[name] = pc.LocalAddr().String()
		wg.Add(1)
		go func(name string, pc *net.UDPConn) {
			defer wg.Done()
			defer pc.Close()
			n, err := ServeNodeUDP(name, pc)
			if err != nil {
				t.Errorf("node %s: %v", name, err)
			}
			mu.Lock()
			nodes[name] = n
			mu.Unlock()
		}(name, pc)
	}
	return peers, func() map[string][]byte {
		wg.Wait() // servers exit on the controller's Shutdown frames
		out := make(map[string][]byte, len(nodes))
		for name, n := range nodes {
			trace, err := n.Trace()
			if err != nil {
				t.Fatalf("node %s trace: %v", name, err)
			}
			out[name] = trace
		}
		return out
	}
}

// TestUDPCluster runs the scripted scenario over real UDP sockets
// against three in-process node servers, each on its own wall clock —
// the acceptance check for the live path: the cluster completes the
// scenario with a clean final audit (zero leaked holds), and, absent
// retransmissions, delivers exactly the frames the deterministic
// loopback reference delivered. The run and its node servers leave no
// goroutine behind: the controller's clock stops with the run.
func TestUDPCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario (a few seconds)")
	}
	ref := mustRun(t, Config{Mode: ModeLoopback})

	base := leakcheck.Take()
	peers, collect := startNodes(t, []string{"core", "east", "west"})
	res, err := Run(Config{Mode: ModeUDP, Peers: peers, Horizon: 2.2})
	if err != nil {
		t.Fatalf("udp run: %v", err)
	}
	traces := collect()
	if err := base.Settled(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	if len(res.Violations) > 0 {
		t.Fatalf("udp violations: %v", res.Violations)
	}
	if res.Commits != ref.Commits || res.Aborted != ref.Aborted {
		t.Fatalf("outcomes diverged: udp %d/%d, loopback %d/%d",
			res.Commits, res.Aborted, ref.Commits, ref.Aborted)
	}
	if !equalStrings(res.Live, ref.Live) {
		t.Fatalf("live conns = %v, want %v", res.Live, ref.Live)
	}
	for id, want := range ref.Rates {
		got := res.Rates[id]
		if d := got - want; d > 1e-6 || d < -1e-6 {
			t.Errorf("rate %s = %v, loopback reference %v", id, got, want)
		}
	}

	// The strict frame comparison assumes lossless delivery; a dropped
	// datagram triggers protocol retransmission, which legitimately adds
	// frames. Localhost UDP is effectively lossless, so this branch runs
	// in practice — but a loaded CI machine must not flake.
	if res.FrameDrops > 0 {
		t.Logf("skipping frame diff: %d drops triggered retransmission", res.FrameDrops)
		return
	}
	if diffs := DiffNodeFrames(traces, ref.NodeTraces); len(diffs) > 0 {
		t.Errorf("udp frame multisets diverge from loopback reference: %v", diffs)
	}
}

// TestUDPRunStopsItsClock pins that a ModeUDP run stops its wall clock
// when it returns: the lease ticker it armed would otherwise keep the
// clock's dispatcher goroutine alive, firing into a closed transport.
func TestUDPRunStopsItsClock(t *testing.T) {
	base := leakcheck.Take()
	peers, collect := startNodes(t, []string{"core", "east", "west"})
	res, err := Run(Config{Mode: ModeUDP, Peers: peers, Script: []Step{}, Horizon: 0.2, lease: leaseConfig{Period: 0.05}})
	if err != nil {
		t.Fatalf("udp run: %v", err)
	}
	collect()
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if err := base.Settled(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}
