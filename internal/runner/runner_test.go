package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByTrial(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got, st, err := Map(context.Background(), workers, 16, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Trials != 16 || st.Failed != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapResultsIndependentOfWorkerCount(t *testing.T) {
	run := func(workers int) []int64 {
		out, _, err := Map(context.Background(), workers, 32, func(_ context.Context, i int) (int64, error) {
			// Simulate a seeded trial: the result must depend only on i.
			return SplitSeed(42, i) % 1000, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 3, 8} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial: %v vs %v", w, got, serial)
		}
	}
}

func TestMapAggregatesErrors(t *testing.T) {
	boom := errors.New("boom")
	got, st, err := Map(context.Background(), 1, 5, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got[2] != 0 {
		t.Fatalf("failed trial result not zero: %d", got[2])
	}
	// Sequential pool: trials after the failure are skipped via cancellation.
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled for skipped trials", err)
	}
	if st.Failed < 1 {
		t.Fatalf("stats.Failed = %d", st.Failed)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("pre-failure results lost: %v", got)
	}
}

func TestMapHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, st, err := Map(ctx, 2, 64, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 2 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return i, nil
		}
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if st.Failed == 0 {
		t.Fatal("expected failed/skipped trials")
	}
	if n := ran.Load(); n == 64 {
		t.Fatalf("cancellation did not stop dispatch: all %d trials ran", n)
	}
}

func TestMapZeroTrials(t *testing.T) {
	got, st, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(got) != 0 || st.Trials != 0 {
		t.Fatalf("got=%v st=%+v err=%v", got, st, err)
	}
}

func TestMapRejectsBadInput(t *testing.T) {
	if _, _, err := Map[int](context.Background(), 1, -1, nil); err == nil {
		t.Fatal("expected error for negative trials")
	}
	if _, _, err := Map[int](context.Background(), 1, 1, nil); err == nil {
		t.Fatal("expected error for nil fn")
	}
}

func TestSplitSeedProperties(t *testing.T) {
	if SplitSeed(7, 0) != 7 {
		t.Fatalf("trial 0 must keep the master seed, got %d", SplitSeed(7, 0))
	}
	if SplitSeed(0, 0) != 0 {
		t.Fatalf("trial 0 must keep a zero master seed too, got %d", SplitSeed(0, 0))
	}
	// Distinct trials must get distinct seeds (collision here would break
	// replication sweeps); also distinct masters must diverge.
	seen := map[int64]int{}
	for trial := 0; trial < 10000; trial++ {
		s := SplitSeed(99, trial)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: trials %d and %d -> %d", prev, trial, s)
		}
		seen[s] = trial
	}
	if SplitSeed(1, 5) == SplitSeed(2, 5) {
		t.Fatal("masters 1 and 2 collide at trial 5")
	}
}

func TestStatsSpeedupAndString(t *testing.T) {
	st := Stats{Trials: 8, Workers: 4, Wall: time.Second, Work: 3 * time.Second}
	if got := st.Speedup(); got != 3 {
		t.Fatalf("speedup = %v", got)
	}
	if (Stats{}).Speedup() != 0 {
		t.Fatal("zero stats must report 0 speedup")
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats string")
	}
	want := fmt.Sprintf("trials=%d workers=%d", st.Trials, st.Workers)
	if got := st.String(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("stats string %q", got)
	}
}

func TestProgressMarksEveryTrial(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewProgress(12)
		ctx := WithProgress(context.Background(), p)
		if _, _, err := Map(ctx, workers, 12, func(_ context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p.Done() != 12 || p.Total() != 12 {
			t.Fatalf("workers=%d: progress %d/%d, want 12/12", workers, p.Done(), p.Total())
		}
	}
}

func TestProgressCountsFailedTrialsAndSkips(t *testing.T) {
	p := NewProgress(8)
	ctx := WithProgress(context.Background(), p)
	boom := errors.New("boom")
	_, st, err := Map(ctx, 1, 8, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Serial pool: trials 0..2 ran (marked), 3..7 were skipped after the
	// cancel and must not be marked as done.
	if p.Done() != 3 {
		t.Fatalf("progress done = %d, want 3 (skipped trials are not done)", p.Done())
	}
	if st.Failed != 6 {
		t.Fatalf("failed = %d, want 6", st.Failed)
	}
}

func TestMapWithoutProgressStillRuns(t *testing.T) {
	got, _, err := Map(context.Background(), 2, 4, func(_ context.Context, i int) (int, error) {
		return i + 1, nil
	})
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("got %v, err %v", got, err)
	}
}
