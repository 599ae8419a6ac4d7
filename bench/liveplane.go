package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"armnet/internal/maxmin"
	"armnet/internal/randx"
	"armnet/internal/sortx"
	"armnet/internal/testnet"
	"armnet/internal/topology"
)

// The live-plane script generator. A fixed population of livePool
// portables, each holding at most one connection, is what caps the live
// set: without the cap a 600-step script accumulates ~157 connections,
// every handoff and close KickAll()s all of them, and one pass becomes
// millions of frames. The cap is part of the workload definition.
const (
	livePool  = 24 // portables, hence the most connections ever live
	liveFloor = 16 // below this many live connections the next step is a setup

	// b_min range: livePool × liveBMinHi stays under liveCapLo, so no
	// setup or handoff can be refused even with every connection in one
	// cell after a capacity drop — the workload has no failing operation.
	liveBMinLo = 16e3
	liveBMinHi = 48e3
	liveCapLo  = 1.2e6
	liveCapHi  = 1.6e6

	// liveCooldown keeps a connection out of handoff and close until its
	// last signalling session has long committed: at 10 ms spacing a
	// handoff drawn for a connection set up one step earlier would find it
	// still in flight and be skipped, which is a failed operation.
	liveCooldown = 0.15
)

// Op mix once liveFloor is reached: setup / handoff / close / capacity.
var liveMix = []float64{0.30, 0.40, 0.20, 0.10}

// liveConn is the generator's view of one live connection.
type liveConn struct {
	portable int
	step     testnet.Step // the setup or latest handoff step
}

// liveScript generates a steps-long script with one step every spacing
// seconds. The same seed gives the same script.
func liveScript(env *topology.Environment, seed int64, steps int, spacing float64) []testnet.Step {
	rng := randx.New(seed)
	cells := env.Universe.Cells()
	serial := make([]int, livePool)
	free := make([]int, livePool)
	for i := range free {
		free[i] = i
	}
	var live []liveConn
	out := make([]testnet.Step, 0, steps)
	for i := 0; i < steps; i++ {
		at := float64(i+1) * spacing
		op := testnet.OpSetup
		if len(live) >= liveFloor {
			op = testnet.Op(rng.Categorical(liveMix))
			if op == testnet.OpSetup && len(free) == 0 {
				op = testnet.OpHandoff
			}
		}
		// settled lists the connections a handoff or close may pick.
		var settled []int
		if op == testnet.OpHandoff || op == testnet.OpClose {
			for k := range live {
				if at-live[k].step.At >= liveCooldown {
					settled = append(settled, k)
				}
			}
			if len(settled) == 0 {
				op = testnet.OpCapacity
			}
		}
		switch op {
		case testnet.OpSetup:
			k := rng.Intn(len(free))
			p := free[k]
			free = append(free[:k], free[k+1:]...)
			bmin := liveBMinLo + rng.Float64()*(liveBMinHi-liveBMinLo)
			st := testnet.Step{
				At: at, Op: testnet.OpSetup,
				Conn: fmt.Sprintf("p%02d:%d", p, serial[p]),
				Cell: cells[rng.Intn(len(cells))].ID,
				Host: rng.Intn(len(env.Hosts)),
				Min:  bmin, Max: 4 * bmin,
			}
			serial[p]++
			live = append(live, liveConn{portable: p, step: st})
			out = append(out, st)
		case testnet.OpHandoff:
			c := &live[settled[rng.Intn(len(settled))]]
			nbs := env.Universe.Cell(c.step.Cell).Neighbors()
			st := c.step
			st.At, st.Op, st.Cell = at, testnet.OpHandoff, nbs[rng.Intn(len(nbs))]
			c.step = st
			out = append(out, st)
		case testnet.OpClose:
			k := settled[rng.Intn(len(settled))]
			c := live[k]
			live = append(live[:k], live[k+1:]...)
			free = append(free, c.portable)
			out = append(out, testnet.Step{At: at, Op: testnet.OpClose, Conn: c.step.Conn})
		case testnet.OpCapacity:
			out = append(out, testnet.Step{
				At: at, Op: testnet.OpCapacity,
				Cell:     cells[rng.Intn(len(cells))].ID,
				Capacity: liveCapLo + rng.Float64()*(liveCapHi-liveCapLo),
			})
		}
	}
	return out
}

// peakLive replays a script and returns the largest live set it reaches.
func peakLive(script []testnet.Step) int {
	live, peak := map[string]bool{}, 0
	for _, st := range script {
		switch st.Op {
		case testnet.OpSetup:
			live[st.Conn] = true
		case testnet.OpClose:
			delete(live, st.Conn)
		}
		if len(live) > peak {
			peak = len(live)
		}
	}
	return peak
}

// finalProblem reconstructs the maxmin instance a script leaves behind:
// the connections still live on their last route, demand b_max − b_min,
// over the links those routes use at each cell's last scripted capacity.
// It is the live plane's counterpart of Protocol.Problem(), which the
// testnet harness does not expose.
func finalProblem(env *topology.Environment, script []testnet.Step) (maxmin.Problem, error) {
	last := map[string]testnet.Step{}
	capacity := map[topology.LinkID]float64{}
	for _, st := range script {
		switch st.Op {
		case testnet.OpSetup, testnet.OpHandoff:
			last[st.Conn] = st
		case testnet.OpClose:
			delete(last, st.Conn)
		case testnet.OpCapacity:
			cell := env.Universe.Cell(st.Cell)
			capacity[topology.LinkID(string(cell.BaseStation)+"->"+string(topology.AirNode(st.Cell)))] = st.Capacity
		}
	}
	p := maxmin.Problem{Capacity: map[string]float64{}}
	for _, id := range sortx.Keys(last) {
		st := last[id]
		route, err := env.Backbone.ShortestPath(env.Hosts[st.Host%len(env.Hosts)], topology.AirNode(st.Cell))
		if err != nil {
			return p, fmt.Errorf("route for %s: %w", id, err)
		}
		c := maxmin.Conn{ID: id, Demand: st.Max - st.Min}
		for _, l := range route.Links {
			c.Path = append(c.Path, string(l.ID))
			if cp, ok := capacity[l.ID]; ok {
				p.Capacity[string(l.ID)] = cp
			} else {
				p.Capacity[string(l.ID)] = l.Capacity
			}
		}
		p.Conns = append(p.Conns, c)
	}
	return p, nil
}

// traceLine is one eventbus JSONL record: the envelope plus the payload
// fields this benchmark reads, whichever record kinds carry them.
type traceLine struct {
	T    float64 `json:"t"`
	Type string  `json:"type"`
	Ev   struct {
		Conn     string  `json:"conn"`     // signal-commit
		Latency  float64 `json:"latency"`  // signal-commit
		Sessions int     `json:"sessions"` // maxmin-converged
		Messages int     `json:"messages"` // maxmin-converged
		Msg      string  `json:"msg"`      // wire-delivery: frame kind
		Bytes    int     `json:"bytes"`    // wire-delivery
	} `json:"ev"`
}

// eachTraceLine decodes a JSONL trace line by line.
func eachTraceLine(trace []byte, fn func(*traceLine)) error {
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var ln traceLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		fn(&ln)
	}
	return sc.Err()
}

// commitRecord is one signal-commit line.
type commitRecord struct {
	T       float64
	Conn    string
	Latency float64
}

// traceSummary is what the benchmark reads out of a controller trace.
type traceSummary struct {
	Lines   int
	ByType  map[string]int
	Commits []commitRecord
	// Sessions and Messages are the maxmin protocol's cumulative totals in
	// the last maxmin-converged record: exact once the run has settled.
	Sessions, Messages int
}

// parseControllerTrace folds a controller JSONL trace into counts per
// record type, the signal-commit records and the protocol's totals.
func parseControllerTrace(trace []byte) (*traceSummary, error) {
	s := &traceSummary{ByType: map[string]int{}}
	err := eachTraceLine(trace, func(ln *traceLine) {
		s.Lines++
		s.ByType[ln.Type]++
		switch ln.Type {
		case "signal-commit":
			s.Commits = append(s.Commits, commitRecord{T: ln.T, Conn: ln.Ev.Conn, Latency: ln.Ev.Latency})
		case "maxmin-converged":
			s.Sessions, s.Messages = ln.Ev.Sessions, ln.Ev.Messages
		}
	})
	if err != nil {
		return nil, fmt.Errorf("controller trace: %w", err)
	}
	return s, nil
}

// frameSummary is what the benchmark reads out of node traces.
type frameSummary struct {
	Frames int
	Bytes  int
	ByKind map[string]int
}

// parseNodeTraces folds every node's wire-delivery records.
func parseNodeTraces(traces map[string][]byte) (*frameSummary, error) {
	fs := &frameSummary{ByKind: map[string]int{}}
	for _, name := range sortx.Keys(traces) {
		err := eachTraceLine(traces[name], func(ln *traceLine) {
			if ln.Type != "wire-delivery" {
				return
			}
			fs.Frames++
			fs.Bytes += ln.Ev.Bytes
			fs.ByKind[ln.Ev.Msg]++
		})
		if err != nil {
			return nil, fmt.Errorf("node %s trace: %w", name, err)
		}
	}
	return fs, nil
}

// stepLatencies matches signal-commit records to the script's setup and
// handoff steps — the n-th commit of a connection belongs to its n-th
// setup-or-handoff step — and returns the commit latencies in ms by op,
// plus how late each such step started: the session's start (commit
// stamp minus its latency) minus the step's due time, also in ms.
func stepLatencies(script []testnet.Step, ts *traceSummary) (setupMS, handoffMS, lagMS []float64, err error) {
	steps := map[string][]testnet.Step{}
	for _, st := range script {
		if st.Op == testnet.OpSetup || st.Op == testnet.OpHandoff {
			steps[st.Conn] = append(steps[st.Conn], st)
		}
	}
	nth := map[string]int{}
	for _, c := range ts.Commits {
		i := nth[c.Conn]
		nth[c.Conn]++
		if i >= len(steps[c.Conn]) {
			return nil, nil, nil, fmt.Errorf("trace commits %s %d times, script has %d sessions for it", c.Conn, i+1, len(steps[c.Conn]))
		}
		st := steps[c.Conn][i]
		if st.Op == testnet.OpSetup {
			setupMS = append(setupMS, c.Latency*1e3)
		} else {
			handoffMS = append(handoffMS, c.Latency*1e3)
		}
		lagMS = append(lagMS, (c.T-c.Latency-st.At)*1e3)
	}
	return setupMS, handoffMS, lagMS, nil
}

// udpNodes is three in-process node servers on 127.0.0.1 — host
// loopback, not a real link.
type udpNodes struct {
	peers map[string]string
	wg    sync.WaitGroup
	mu    sync.Mutex
	nodes map[string]*testnet.Node
	errs  []error
	conns []*net.UDPConn
}

// startUDPNodes binds one socket per agent and serves each on its own
// goroutine. A bind failure is an error, never a skip.
func startUDPNodes(names []string) (*udpNodes, error) {
	u := &udpNodes{peers: map[string]string{}, nodes: map[string]*testnet.Node{}}
	for _, name := range names {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			u.abort()
			return nil, fmt.Errorf("cannot bind UDP on 127.0.0.1 for node %s: %w", name, err)
		}
		u.conns = append(u.conns, pc)
		u.peers[name] = pc.LocalAddr().String()
	}
	for i, name := range names {
		u.wg.Add(1)
		go func(name string, pc *net.UDPConn) {
			defer u.wg.Done()
			defer pc.Close()
			n, err := testnet.ServeNodeUDP(name, pc)
			u.mu.Lock()
			defer u.mu.Unlock()
			u.nodes[name] = n
			if err != nil {
				u.errs = append(u.errs, fmt.Errorf("node %s: %w", name, err))
			}
		}(name, u.conns[i])
	}
	return u, nil
}

// abort closes every socket, which ends the serve loops, and waits.
func (u *udpNodes) abort() {
	for _, pc := range u.conns {
		pc.Close()
	}
	u.wg.Wait()
}

// wait blocks until every server has exited on the controller's
// Shutdown frame and returns their traces.
func (u *udpNodes) wait() (map[string][]byte, error) {
	u.wg.Wait()
	if len(u.errs) > 0 {
		return nil, u.errs[0]
	}
	out := make(map[string][]byte, len(u.nodes))
	for name, n := range u.nodes {
		tr, err := n.Trace()
		if err != nil {
			return nil, fmt.Errorf("node %s trace: %w", name, err)
		}
		out[name] = tr
	}
	return out, nil
}
