package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"armnet/internal/adapt"
	"armnet/internal/admission"
	"armnet/internal/clock"
	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/maxmin"
	"armnet/internal/qos"
	"armnet/internal/signal"
	"armnet/internal/sortx"
	"armnet/internal/testnet"
	"armnet/internal/topology"
	"armnet/internal/wire"
)

// probeInputs are the sizes the probes run at, taken from the traced
// pass so that a probe costs what the layer cost in the workload.
type probeInputs struct {
	// connsPerLink is K: the mean LinkState.NumConns() over loaded links
	// at the horizon.
	connsPerLink int
	// queueDepth is the simulator's max Pending() seen by the driver.
	queueDepth int
	// problem is the maxmin instance the traced pass left behind.
	problem maxmin.Problem
	// frameMix is the observed frame count per wire kind; empty on the
	// sim plane, where the probes fall back to one frame of each kind.
	frameMix map[string]int
	// smoke cuts iteration counts to a token amount.
	smoke bool
}

func (in probeInputs) iters(n int) int {
	if in.smoke {
		return max(n/100, 10)
	}
	return n
}

// measure runs fn iters times under a span and returns mean ns and mean
// heap allocations per call.
func measure(tr *tracer, name string, iters int, fn func()) (ns, allocs float64) {
	fn() // warm caches, pools and lazily grown buffers
	var m0, m1 runtime.MemStats
	sp := tr.begin(name, "")
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	tr.end(sp)
	return float64(el) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// probeRoute is a 4-hop campus route (host → core → zone switch → base
// station → air), the only route length BuildCampus produces.
func probeRoute(env *topology.Environment) (topology.Route, error) {
	route, err := env.Backbone.ShortestPath(env.Hosts[0], topology.AirNode(env.Universe.Cells()[0].ID))
	if err != nil {
		return route, err
	}
	if route.Hops() != 4 {
		return route, fmt.Errorf("probe route has %d hops, want 4", route.Hops())
	}
	return route, nil
}

func probeRequest(bmin float64) qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: bmin, Max: 4 * bmin},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: bmin / 4, Rho: bmin},
	}
}

// loadedLedger books k small connections on every link of the route.
func loadedLedger(env *topology.Environment, route topology.Route, k int) *admission.Ledger {
	lg := admission.NewLedger(env.Backbone)
	for i := 0; i < k; i++ {
		id := fmt.Sprintf("bg-%03d", i)
		for _, l := range route.Links {
			lg.Link(l.ID).Book(id, admission.Alloc{Min: 8e3, Cur: 8e3, Buffer: 2e3})
		}
	}
	return lg
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// runProbes calls each layer's public functions directly and returns the
// [p] metrics. Every probe is one span named probe.<layer>.<fn>.
func runProbes(tr *tracer, in probeInputs) (map[string]float64, error) {
	out := map[string]float64{}
	env, err := topology.BuildCampus()
	if err != nil {
		return nil, err
	}
	route, err := probeRoute(env)
	if err != nil {
		return nil, err
	}
	k := max(in.connsPerLink, 1)

	// des: post one event and fire it, with queueDepth far-future events
	// keeping the heap as deep as the workload had it.
	{
		sim := des.New()
		for i := 0; i < in.queueDepth; i++ {
			sim.Post(1e12+float64(i), func() {})
		}
		t, fired := 0.0, 0
		fn := func() { fired++ }
		var runErr error
		out["des.event_ns"], out["des.event_allocs"] = measure(tr, "probe.des.post_fire", in.iters(100000), func() {
			t++
			sim.Post(t, fn)
			if err := sim.RunUntil(t); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		sink += float64(fired)
	}

	// eventbus: publish on a manager's bus, and on a bus with the JSONL
	// recorder the live plane always attaches.
	{
		mgr, err := core.NewManager(des.New(), env, core.Config{})
		if err != nil {
			return nil, err
		}
		out["eventbus.publish_ns"], _ = measure(tr, "probe.eventbus.pub", in.iters(100000), func() {
			eventbus.Pub(mgr.Bus, eventbus.BandwidthChange{Conn: "conn-0", Bandwidth: 64e3})
		})
		bus := eventbus.New(des.New())
		rec := eventbus.AttachRecorder(bus, io.Discard)
		out["eventbus.record_ns"], out["eventbus.record_allocs"] = measure(tr, "probe.eventbus.record", in.iters(100000), func() {
			eventbus.Pub(bus, eventbus.AdaptationRound{Conn: "p00:0", Round: 2, Stamp: 123456.789})
		})
		if err := rec.Err(); err != nil {
			return nil, err
		}
	}

	// admission: the read side, the full Table 2 round trip, and the
	// write side of the same ledger, all at K connections per link.
	{
		lg := loadedLedger(env, route, k)
		ls := lg.Link(route.Links[3].ID)
		out["admission.read_ns"], _ = measure(tr, "probe.admission.read", in.iters(100000), func() {
			sink += ls.SumMin() + ls.SumBuffer() + ls.ExcessAvailable()
		})

		ctl := admission.NewController(lg)
		test := admission.Test{ConnID: "probe", Req: probeRequest(16e3), Route: route, Kind: admission.KindNew, Mobility: qos.Mobile}
		var admitErr error
		out["admission.admit_ns"], out["admission.admit_allocs"] = measure(tr, "probe.admission.admit", in.iters(20000), func() {
			res, err := ctl.Admit(test)
			if err != nil || !res.Admitted {
				admitErr = fmt.Errorf("probe admit refused: %v %s", err, res.Reason)
			}
			lg.Release("probe", route) // four map deletes, ~1 % of the Admit
		})
		if admitErr != nil {
			return nil, admitErr
		}

		out["admission.book_release_ns"], _ = measure(tr, "probe.admission.book_release", in.iters(100000), func() {
			for _, l := range route.Links {
				lg.Link(l.ID).Book("probe", admission.Alloc{Min: 16e3, Cur: 16e3, Buffer: 4e3})
			}
			lg.Release("probe", route)
		})
	}

	// signal: one setup session to commit on the simulator clock.
	{
		lg := loadedLedger(env, route, k)
		sim := des.New()
		plane := signal.NewPlaneOn(clock.Sim(sim), admission.NewController(lg), lg, signal.Options{})
		test := admission.Test{ConnID: "probe", Req: probeRequest(16e3), Route: route, Kind: admission.KindNew, Mobility: qos.Mobile}
		var setupErr error
		out["signal.setup_ns"], out["signal.setup_allocs"] = measure(tr, "probe.signal.setup", in.iters(20000), func() {
			plane.Setup(test, func(r signal.Result) {
				if r.Err != nil {
					setupErr = r.Err
				}
			})
			if err := sim.Run(); err != nil {
				setupErr = err
			}
			lg.Release("probe", route)
		})
		if setupErr != nil {
			return nil, fmt.Errorf("probe signal setup: %w", setupErr)
		}
	}

	// maxmin: rebuild the protocol from the snapshot, kick everything,
	// run to quiescence; and the centralized oracle on the same instance.
	if len(in.problem.Conns) > 0 {
		rounds, sessions := 0, 0
		session := func(count bool) error {
			sim := des.New()
			pr := maxmin.NewProtocolOn(clock.Sim(sim), maxmin.ProtocolOptions{Refined: true})
			if count {
				pr.Bus = eventbus.New(sim)
				pr.Bus.Subscribe(func(eventbus.Record) { rounds++ }, eventbus.KindAdaptationRound)
			}
			for _, l := range sortx.Keys(in.problem.Capacity) {
				if err := pr.AddLink(l, in.problem.Capacity[l]); err != nil {
					return err
				}
			}
			for _, c := range in.problem.Conns {
				if err := pr.AddConn(c); err != nil {
					return err
				}
			}
			pr.KickAll()
			if err := sim.Run(); err != nil {
				return err
			}
			sessions = pr.Sessions
			return nil
		}
		if err := session(true); err != nil {
			return nil, fmt.Errorf("probe maxmin: %w", err)
		}
		var runErr error
		ns, allocs := measure(tr, "probe.maxmin.session", in.iters(200), func() {
			if err := session(false); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("probe maxmin: %w", runErr)
		}
		out["maxmin.round_ns"] = ns / float64(max(rounds, 1))
		out["maxmin.session_allocs"] = allocs / float64(max(sessions, 1))
		out["maxmin.waterfill_ns"], _ = measure(tr, "probe.maxmin.waterfill", in.iters(2000), func() {
			a, err := maxmin.WaterFill(in.problem)
			if err != nil {
				runErr = err
			}
			sink += float64(len(a))
		})
		if runErr != nil {
			return nil, fmt.Errorf("probe waterfill: %w", runErr)
		}
	} else {
		out["maxmin.round_ns"], out["maxmin.session_allocs"], out["maxmin.waterfill_ns"] = 0, 0, 0
	}

	// adapt: register a static connection, unregister it, resync.
	{
		lg := loadedLedger(env, route, k)
		am, err := adapt.NewManager(des.New(), lg, maxmin.ProtocolOptions{Refined: true})
		if err != nil {
			return nil, err
		}
		bounds := qos.Bounds{Min: 16e3, Max: 64e3}
		var regErr error
		out["adapt.register_ns"], _ = measure(tr, "probe.adapt.register", in.iters(20000), func() {
			if err := am.Register("probe", route, bounds, qos.Static); err != nil {
				regErr = err
			}
			am.Unregister("probe")
			am.SyncRoute(route)
		})
		if regErr != nil {
			return nil, fmt.Errorf("probe adapt: %w", regErr)
		}
	}

	// topology: every host→air pair of the campus.
	{
		cells := env.Universe.Cells()
		pairs := len(env.Hosts) * len(cells)
		var pathErr error
		ns, _ := measure(tr, "probe.topology.shortest_path", in.iters(2000), func() {
			for _, h := range env.Hosts {
				for _, c := range cells {
					r, err := env.Backbone.ShortestPath(h, topology.AirNode(c.ID))
					if err != nil {
						pathErr = err
					}
					sink += float64(r.Hops())
				}
			}
		})
		if pathErr != nil {
			return nil, pathErr
		}
		out["topology.shortest_path_ns"] = ns / float64(pairs)
	}

	// wire and node: encode, decode and handle frames in the observed mix.
	frames := probeFrames(in.frameMix)
	{
		buf := make([]byte, 0, wire.MaxFrame)
		encoded := make([][]byte, len(frames))
		var wireErr error
		nsE, allocE := measure(tr, "probe.wire.append_frame", in.iters(20000), func() {
			for i, m := range frames {
				b, err := wire.AppendFrame(buf[:0], uint32(i), m)
				if err != nil {
					wireErr = err
				}
				sink += float64(len(b))
			}
		})
		for i, m := range frames {
			if encoded[i], err = wire.Encode(uint32(i+1), m); err != nil {
				return nil, err
			}
		}
		nsD, allocD := measure(tr, "probe.wire.decode", in.iters(20000), func() {
			for _, f := range encoded {
				_, seq, err := wire.Decode(f)
				if err != nil {
					wireErr = err
				}
				sink += float64(seq)
			}
		})
		if wireErr != nil {
			return nil, fmt.Errorf("probe wire: %w", wireErr)
		}
		n := float64(len(frames))
		out["wire.encode_ns"], out["wire.decode_ns"] = nsE/n, nsD/n
		out["wire.allocs_per_frame"] = (allocE + allocD) / n

		node := testnet.NewNode("probe", des.New())
		nsH, allocH := measure(tr, "probe.testnet.handle_frame", in.iters(20000), func() {
			for _, f := range encoded {
				ack, _, err := node.HandleFrame(f)
				if err != nil {
					wireErr = err
				}
				sink += float64(len(ack))
			}
		})
		if wireErr != nil {
			return nil, fmt.Errorf("probe node: %w", wireErr)
		}
		out["testnet.node_handle_ns"], out["testnet.node_handle_allocs"] = nsH/n, allocH/n
	}

	// testnet over a real socket: one frame out, one ack back.
	rtt, err := probeUDPFrameRTT(tr, in.iters(5000))
	if err != nil {
		return nil, err
	}
	s := summarize(rtt)
	out["testnet.udp_frame_rtt_us_p50"] = s.P50 / 1e3
	out["testnet.udp_frame_rtt_us_p99"] = percentile(sorted(rtt), 99) / 1e3

	// clock: how late a 1 ms wall timer fires.
	out["clock.wall_timer_lag_us_p50"] = median(probeWallTimerLag(tr, in.iters(300))) / 1e3
	return out, nil
}

// probeFrames expands a kind→count mix into about 100 frames in those
// proportions (at least one of each kind present); an empty mix yields
// one frame of each kind.
func probeFrames(mix map[string]int) []wire.Message {
	mk := map[string]wire.Message{
		"advertise":     wire.Advertise{Conn: "p07:3", Hop: 2, Round: 3, Stamp: 87654.321},
		"update":        wire.Update{Conn: "p07:3", Hop: 1, Rate: 87654.321},
		"signal-setup":  wire.SignalSetup{Conn: "p07:3", Hop: 0, Bandwidth: 32e3},
		"signal-commit": wire.SignalCommit{Conn: "p07:3", Hop: 5, Bandwidth: 32e3},
		"signal-abort":  wire.SignalAbort{Conn: "p07:3", Hop: 2, Reason: "hop-rejected"},
	}
	total := 0
	for _, k := range wireKinds {
		total += mix[k]
	}
	var out []wire.Message
	for _, k := range wireKinds {
		n := 1
		if total > 0 {
			if mix[k] == 0 {
				continue
			}
			n = max(mix[k]*100/total, 1)
		}
		for i := 0; i < n; i++ {
			out = append(out, mk[k])
		}
	}
	return out
}

// probeUDPFrameRTT serves one node on 127.0.0.1 and times raw
// frame→ack exchanges against it, returning ns per exchange.
func probeUDPFrameRTT(tr *tracer, iters int) ([]float64, error) {
	nodes, err := startUDPNodes([]string{"probe"})
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		nodes.abort()
		return nil, fmt.Errorf("cannot bind UDP on 127.0.0.1: %w", err)
	}
	defer pc.Close()
	peer, err := net.ResolveUDPAddr("udp", nodes.peers["probe"])
	if err != nil {
		nodes.abort()
		return nil, err
	}
	exchange := func(seq uint32, m wire.Message) error {
		frame, err := wire.Encode(seq, m)
		if err != nil {
			return err
		}
		if _, err := pc.WriteToUDP(frame, peer); err != nil {
			return err
		}
		if err := pc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return err
		}
		buf := make([]byte, wire.MaxFrame+1)
		n, _, err := pc.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		am, _, err := wire.Decode(buf[:n])
		if err != nil {
			return err
		}
		if a, ok := am.(wire.Ack); !ok || a.AckSeq != seq {
			return fmt.Errorf("udp probe: got %v, want ack of %d", am, seq)
		}
		return nil
	}
	sp := tr.begin("probe.testnet.udp_frame_rtt", "")
	out := make([]float64, 0, iters)
	var runErr error
	for i := 0; i < iters+20 && runErr == nil; i++ {
		t0 := time.Now()
		runErr = exchange(uint32(i+1), wire.Advertise{Conn: "p07:3", Hop: 2, Round: 3, Stamp: 87654.321})
		if i >= 20 { // the first exchanges warm the socket path
			out = append(out, float64(time.Since(t0)))
		}
	}
	tr.end(sp)
	if runErr == nil {
		runErr = exchange(uint32(iters+100), wire.Shutdown{})
	}
	if runErr != nil {
		nodes.abort()
		return nil, fmt.Errorf("udp frame probe: %w", runErr)
	}
	if _, err := nodes.wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// probeWallTimerLag arms 1 ms timers on a wall clock one after another
// and returns how many ns after its due time each fired.
func probeWallTimerLag(tr *tracer, iters int) []float64 {
	const delay = 1e-3
	clk := clock.NewWall()
	sp := tr.begin("probe.clock.wall_after", "")
	out := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		fired := make(chan float64, 1)
		due := clk.Now() + delay
		clk.After(delay, func() { fired <- clk.Now() })
		out = append(out, (<-fired-due)*1e9)
	}
	tr.end(sp)
	return out
}
