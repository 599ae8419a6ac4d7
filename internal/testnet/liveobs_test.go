package testnet

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"armnet/internal/clock"
)

// liveObsConfig is the armed scenario the golden pins: loopback fabric
// with lease renewal and a deterministic fault plan, so every live
// instrument family (frames, acks, retransmits, give-ups, lease
// traffic, verdicts) fires.
func liveObsConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Mode:        ModeLoopback,
		Faults:      mustPlan(t, "drop any 0.15\ndup maxmin 0.1\nreorder maxmin 0.2 0.004\n"),
		faultSeed:   7,
		readvertise: 0.5,
		lease:       leaseConfig{Period: 0.5},
		Horizon:     4,
	}
}

// TestLiveObsZeroCost pins the acceptance criterion: arming the live
// observability layer must not perturb the run. The controller and
// node traces of the armed run are byte-identical to the disarmed one,
// and frame accounting does not move — the recorder observes the wire,
// it never touches it.
func TestLiveObsZeroCost(t *testing.T) {
	cfg := liveObsConfig(t)
	plain := mustRun(t, cfg)

	armed := cfg
	armed.Obs = NewWireRecorder()
	withObs := mustRun(t, armed)

	if len(withObs.Violations) > 0 {
		t.Fatalf("armed violations: %v", withObs.Violations)
	}
	if d := DiffTraces(plain.ControllerTrace, withObs.ControllerTrace); d != "" {
		t.Fatalf("armed recorder perturbed the controller trace:\n%s", d)
	}
	for name, ta := range plain.NodeTraces {
		if !bytes.Equal(ta, withObs.NodeTraces[name]) {
			t.Fatalf("armed recorder perturbed node %s trace:\n%s",
				name, DiffTraces(ta, withObs.NodeTraces[name]))
		}
	}
	if plain.FramesSent != withObs.FramesSent || plain.FrameDrops != withObs.FrameDrops {
		t.Fatalf("frame accounting moved: %d/%d vs %d/%d",
			plain.FramesSent, plain.FrameDrops, withObs.FramesSent, withObs.FrameDrops)
	}
	if plain.LiveSnapshot != nil || plain.LiveSpans != nil {
		t.Fatal("disarmed run produced live observability output")
	}
	if withObs.LiveSnapshot == nil {
		t.Fatal("armed run produced no snapshot")
	}
}

// TestLiveObsSnapshotGolden pins the armed loopback run's merged
// cluster snapshot and wire spans byte-for-byte, like the sim layer's
// obssnapshot.golden: one deterministic export covering every live
// instrument family. Regenerate with -update after intentional
// metric changes.
func TestLiveObsSnapshotGolden(t *testing.T) {
	cfg := liveObsConfig(t)
	cfg.Obs = NewWireRecorder()
	res := mustRun(t, cfg)
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}

	snap := res.LiveSnapshot
	if snap == nil {
		t.Fatal("no live snapshot")
	}
	// Every instrument family the scenario is built to exercise must be
	// non-zero before the bytes are even compared, so a refactor that
	// silently unhooks a seam cannot hide behind a regenerated golden.
	for _, name := range []string{
		"armnet_wire_frames_tx_total",
		"armnet_wire_frames_rx_total",
		"armnet_wire_bytes_tx_total",
		"armnet_wire_acks_total",
		"armnet_wire_retransmits_total",
		"armnet_wire_lease_renews_total",
		"armnet_wire_fault_verdicts_total",
	} {
		if snap.CounterTotal(name) == 0 {
			t.Errorf("instrument family %s never fired", name)
		}
	}
	if len(res.LiveSpans) == 0 {
		t.Error("no wire spans exported")
	}

	got := append(snap.JSON(), res.LiveSpans...)
	golden := filepath.Join("testdata", "livesnapshot.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("live snapshot drifted from golden:\n got: %s\nwant: %s", got, want)
	}

	// Determinism independent of the golden file: a second armed run
	// exports identical bytes.
	cfg2 := liveObsConfig(t)
	cfg2.Obs = NewWireRecorder()
	res2 := mustRun(t, cfg2)
	again := append(res2.LiveSnapshot.JSON(), res2.LiveSpans...)
	if !bytes.Equal(got, again) {
		t.Fatal("armed loopback snapshot not deterministic across runs")
	}
}

// TestLiveObsUDP exercises the armed recorder over real sockets: an
// in-process UDP cluster with per-node recorders, checking tx/rx
// accounting agrees across the wire. Skipped under -short alongside the
// other socket tests.
func TestLiveObsUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario (a few seconds)")
	}
	names := []string{"core", "east", "west"}
	peers := make(map[string]string, len(names))
	recs := make([]*NodeRecorder, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("cannot bind UDP on loopback: %v", err)
		}
		peers[name] = pc.LocalAddr().String()
		rec := NewNodeRecorder(name)
		recs[i] = rec
		n := NewNode(name, clock.NewWall())
		n.SetObs(rec)
		wg.Add(1)
		go func(n *Node, pc *net.UDPConn) {
			defer wg.Done()
			defer pc.Close()
			if err := n.ServeUDP(pc); err != nil {
				t.Errorf("node %s: %v", n.Name, err)
			}
		}(n, pc)
	}

	ctl := NewWireRecorder()
	res, err := Run(Config{Mode: ModeUDP, Peers: peers, Horizon: 2.5, Obs: ctl})
	if err != nil {
		t.Fatalf("udp run: %v", err)
	}
	wg.Wait() // servers exit on the controller's Shutdown frames
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	snap := res.LiveSnapshot
	if snap == nil {
		t.Fatal("no live snapshot")
	}
	// The run-end snapshot is taken before the shutdown frames go out,
	// the same instant FramesSent/FrameDrops are read — the accounting
	// must agree exactly.
	tx := snap.CounterTotal("armnet_wire_frames_tx_total")
	if int(tx) != res.FramesSent+res.FrameDrops {
		t.Errorf("frames_tx %v != sent %d + drops %d", tx, res.FramesSent, res.FrameDrops)
	}
	// The post-shutdown cluster merge folds in the node-side recorders:
	// every acked frame was necessarily received (the node may have
	// received more — frames whose acks were lost, plus the shutdowns).
	clusterSnap, err := ClusterSnapshot(ctl, recs)
	if err != nil {
		t.Fatal(err)
	}
	rx := clusterSnap.CounterTotal("armnet_wire_frames_rx_total")
	if acks := clusterSnap.CounterTotal("armnet_wire_acks_total"); rx < acks {
		t.Errorf("cluster rx %v < acked sends %v", rx, acks)
	}
}
