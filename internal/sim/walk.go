package sim

import (
	"fmt"
	"io"

	"armnet/internal/core"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/mobility"
	"armnet/internal/qos"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

// walk is the paper's §7 experiment shape, written once: portables move
// over a cell graph, open a [b_min, b_max] connection where they first
// land and hand off as they move. The campus comparison, the arena and
// cmd/armsim — and, in the tests, the grid, chaos and overload scenarios —
// are each a filled-in walk plus what they read off the finished manager.
type walk struct {
	env *topology.Environment
	cfg core.Config
	// trace is the move list; a move with no From places the portable.
	trace *mobility.Trace
	req   qos.Request
	// open is what a portable does on being placed.
	open func(w *walk, portable string)
	// horizon is the simulated time the run ends at.
	horizon float64
	// traceW receives the JSONL event stream; nil records nothing.
	traceW io.Writer

	mgr *core.Manager
}

// walkRequest is the connection every walker opens: loose bandwidth
// bounds under the delay, jitter and loss targets the integrated
// scenarios share, with a (σ, ρ) envelope scaled to b_min.
func walkRequest(bMin, bMax float64) qos.Request {
	return qos.Request{
		Bandwidth: qos.Bounds{Min: bMin, Max: bMax},
		Delay:     5, Jitter: 5, Loss: 0.05,
		Traffic: qos.TrafficSpec{Sigma: bMin / 4, Rho: bMin},
	}
}

// randomWalk generates the movement of n portables named by nameFmt,
// seeded one past the manager's seed so the two streams never alias.
func randomWalk(u *topology.Universe, nameFmt string, n int, dwell, duration float64, seed int64) (*mobility.Trace, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(nameFmt, i)
	}
	return mobility.RandomWalk(u, names, dwell, duration, randx.New(seed+1))
}

// openInstant admits the connection in zero simulated time.
func openInstant(w *walk, portable string) {
	_, _ = w.mgr.OpenConnection(portable, w.req)
}

// openSignaled sends the setup through the signaling plane, where it
// races the fault plan hop by hop and surfaces loss, retransmission and
// crashes.
func openSignaled(w *walk, portable string) {
	_ = w.mgr.OpenConnectionAsync(portable, w.req, func(string, error) {})
}

// start builds the simulator and the manager under test. A scenario's own
// subscribers (auditors, collectors) attach between start and run, so the
// recorder run attaches stays the bus's last observer.
func (w *walk) start() (*core.Manager, error) {
	mgr, err := core.NewManager(des.New(), w.env, w.cfg)
	w.mgr = mgr
	return mgr, err
}

// run posts the moves, attaches the JSONL recorder, runs to the horizon
// and finishes obs there. The final audits run next — they may still
// publish — and only then is a failed trace write reported. It returns
// the audits' violations.
func (w *walk) run(audits ...func() []string) ([]string, error) {
	mgr := w.mgr
	w.trace.Schedule(mgr.Sim, func(mv mobility.Move) {
		if mv.From == "" {
			if err := mgr.PlacePortable(mv.Portable, mv.To); err == nil {
				w.open(w, mv.Portable)
			}
			return
		}
		_ = mgr.HandoffPortable(mv.Portable, mv.To)
	})
	var rec *eventbus.Recorder
	if w.traceW != nil {
		rec = eventbus.AttachRecorder(mgr.Bus, w.traceW)
	}
	if err := mgr.Sim.RunUntil(w.horizon); err != nil {
		return nil, err
	}
	if mgr.Obs != nil {
		mgr.Obs.Finish(w.horizon)
		if err := mgr.Obs.SpanErr(); err != nil {
			return nil, err
		}
	}
	var violations []string
	for _, audit := range audits {
		violations = append(violations, audit()...)
	}
	if rec != nil && rec.Err() != nil {
		return nil, rec.Err()
	}
	return violations, nil
}

// RunWalk is the walk for callers that bring their own environment
// (cmd/armsim, the grid tests): cfg.Portables portables named p00, p01, …
// random-walk env for cfg.Duration seconds — or follow replay when it is
// non-nil — each opening one [cfg.BMin, cfg.BMax] connection where it is
// placed. The manager runs cfg.Config as given; under a fault plan
// connections open through the signaling plane, so setups are exposed to
// its message rules. cfg is taken as given, without CampusConfig's
// defaults. The finished manager is returned, its observer (when armed)
// already finished at the horizon.
func RunWalk(env *topology.Environment, cfg CampusConfig, replay *mobility.Trace, traceW io.Writer) (*core.Manager, error) {
	w := walk{
		env: env, cfg: cfg.Config, trace: replay,
		req:  walkRequest(cfg.BMin, cfg.BMax),
		open: openInstant, horizon: cfg.Duration, traceW: traceW,
	}
	if !cfg.Faults.Empty() {
		w.open = openSignaled
	}
	if w.trace == nil {
		var err error
		w.trace, err = randomWalk(env.Universe, "p%02d", cfg.Portables, cfg.Dwell, cfg.Duration, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	mgr, err := w.start()
	if err != nil {
		return nil, err
	}
	if _, err := w.run(); err != nil {
		return nil, err
	}
	return mgr, nil
}
