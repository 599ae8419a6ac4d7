// Package runner is the worker-pool experiment harness: it fans
// independent trials (seeds, policy variants, sweep points, random problem
// instances) across goroutines while guaranteeing bit-for-bit
// deterministic replication — the same top-level seed produces identical
// results at any worker count.
//
// Determinism rests on three rules the package enforces or supports:
//
//  1. Trials are indexed, and every per-trial random stream is derived
//     from (master seed, trial index) via SplitSeed, never from a shared
//     generator whose consumption order depends on scheduling.
//  2. Each trial must build its own mutable world (des.Simulator,
//     topology.Environment, ledgers, profile servers); the trial function
//     receives only its index and values captured by the caller.
//  3. Results are collected into a slice indexed by trial, so reduction
//     order is the trial order regardless of completion order.
//
// Map is the single entry point; Stats reports trial counts, wall time
// and the aggregate speedup over a serial execution of the same work.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats summarizes one Map call. Work is the summed wall time of the
// individual trials; speedup therefore reports how much the pool
// compressed the serial schedule (≈ Workers when trials are uniform).
type Stats struct {
	// Trials is the number of trials requested.
	Trials int
	// Workers is the effective pool size used.
	Workers int
	// Wall is the elapsed time of the whole Map call.
	Wall time.Duration
	// Work is the sum of per-trial execution times.
	Work time.Duration
	// Failed counts trials that returned an error (or were skipped after
	// cancellation).
	Failed int
}

// speedup returns Work/Wall — the parallel speedup over running the same
// trials back to back. Zero when no time was measured.
func (s Stats) speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

// String renders the stats in the one-line form the CLIs print to stderr.
func (s Stats) String() string {
	return fmt.Sprintf("trials=%d workers=%d wall=%s work=%s speedup=%.2fx",
		s.Trials, s.Workers, s.Wall.Round(time.Microsecond), s.Work.Round(time.Microsecond), s.speedup())
}

// errCanceled wraps the context error for trials that never ran because
// the context was canceled (directly or by an earlier trial's failure).
var errCanceled = errors.New("runner: trial canceled")

// Progress is an optional live trial counter for long sweeps: carry one
// through the context with WithProgress and Map will mark every finished
// trial on it. Readers (a telemetry endpoint, a status line) poll Done
// concurrently with the running sweep. Progress never influences the
// trials themselves, so it cannot perturb replication.
type Progress struct {
	total int64
	done  atomic.Int64
}

// NewProgress returns a counter expecting `total` trials.
func NewProgress(total int) *Progress {
	return &Progress{total: int64(total)}
}

// Done returns how many trials have finished (successfully or not).
func (p *Progress) Done() int64 { return p.done.Load() }

// Total returns the expected trial count.
func (p *Progress) Total() int64 { return p.total }

// mark records one finished trial.
func (p *Progress) mark() {
	if p != nil {
		p.done.Add(1)
	}
}

type progressKey struct{}

// WithProgress attaches a progress counter to the context for Map to mark.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, p)
}

// progressFrom extracts the counter, nil when absent.
func progressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressKey{}).(*Progress)
	return p
}

// Map runs fn(ctx, i) for every trial i in [0, trials) on a pool of
// workers and returns the results in trial order.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); the pool never exceeds the
// trial count. workers == 1 degenerates to a strictly sequential loop, so
// serial behavior is one code path, not a special case at call sites.
//
// The first trial error cancels the pool context: running trials may
// observe the cancellation through ctx, and trials not yet started are
// skipped. All trial errors (and one errCanceled per skipped trial) are
// joined, annotated with their trial index, and returned; results of
// failed or skipped trials are the zero value of T. The results slice
// always has length `trials` and depends only on (fn, trials), never on
// worker count or scheduling.
func Map[T any](ctx context.Context, workers, trials int, fn func(ctx context.Context, trial int) (T, error)) ([]T, Stats, error) {
	if trials < 0 {
		return nil, Stats{}, fmt.Errorf("runner: negative trial count %d", trials)
	}
	if fn == nil {
		return nil, Stats{}, errors.New("runner: nil trial function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	st := Stats{Trials: trials, Workers: workers}
	results := make([]T, trials)
	errs := make([]error, trials)
	start := time.Now()

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	prog := progressFrom(ctx)

	runTrial := func(i int) time.Duration {
		if poolCtx.Err() != nil {
			errs[i] = fmt.Errorf("trial %d: %w: %w", i, errCanceled, context.Cause(poolCtx))
			return 0
		}
		t0 := time.Now()
		r, err := fn(poolCtx, i)
		d := time.Since(t0)
		prog.mark()
		if err != nil {
			errs[i] = fmt.Errorf("trial %d: %w", i, err)
			cancel()
			return d
		}
		results[i] = r
		return d
	}

	if workers == 1 {
		for i := 0; i < trials; i++ {
			st.Work += runTrial(i)
		}
	} else {
		var next atomic.Int64
		var work atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var local time.Duration
				for {
					i := int(next.Add(1)) - 1
					if i >= trials {
						break
					}
					local += runTrial(i)
				}
				work.Add(int64(local))
			}()
		}
		wg.Wait()
		st.Work = time.Duration(work.Load())
	}
	st.Wall = time.Since(start)

	var joined []error
	for _, e := range errs {
		if e != nil {
			st.Failed++
			joined = append(joined, e)
		}
	}
	return results, st, errors.Join(joined...)
}

// SplitSeed derives the random seed of one trial from the master seed and
// the trial index using a SplitMix64 finalization step. The derived
// streams are statistically decorrelated even for adjacent indices, and
// the mapping depends only on (master, trial) — the foundation of the
// replication guarantee. Trial 0 keeps the master seed itself — zero
// included — so that a one-trial sweep reproduces a plain single run
// (every int64, 0 among them, is a valid and distinct seed throughout
// the experiment configs).
func SplitSeed(master int64, trial int) int64 {
	if trial == 0 {
		return master
	}
	z := uint64(master) + uint64(trial)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
