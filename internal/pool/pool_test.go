package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunFillsEverySlot(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{0, 100}, {1, 100}, {4, 100}, {8, 3}, {4, 1}, {4, 0}} {
		out := make([]int, c.n)
		if err := Run(context.Background(), c.workers, c.n, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d n=%d: %v", c.workers, c.n, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d n=%d: slot %d = %d, want %d", c.workers, c.n, i, v, i*i)
			}
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		err := Run(context.Background(), workers, 100_000, func(i int) error {
			started.Add(1)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if started.Load() == 100_000 {
			t.Fatalf("workers=%d: every task started although task 5 failed", workers)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := Run(ctx, workers, 10, func(int) error { ran = true; return nil })
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("workers=%d: err = %v, ran = %v; want context.Canceled and no task run", workers, err, ran)
		}
	}
	if err := Run(ctx, 4, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0: err = %v, want context.Canceled", err)
	}
	// Canceled mid-run: tasks not yet started are skipped.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	err := Run(ctx, 4, 100_000, func(i int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || started.Load() == 100_000 {
		t.Fatalf("mid-run cancel: err = %v after %d tasks", err, started.Load())
	}
}

// TestRunRepanicsOnCaller is the process-survival check: a panic on a
// worker goroutine reaches the goroutine that called Run, carrying the
// original value and the worker's stack, after the siblings have stopped.
func TestRunRepanicsOnCaller(t *testing.T) {
	var started, finished atomic.Int64
	var got any
	func() {
		defer func() { got = recover() }()
		_ = Run(context.Background(), 4, 100_000, func(i int) error {
			started.Add(1)
			defer finished.Add(1)
			if i == 3 {
				panic(fmt.Sprintf("task %d exploded", i))
			}
			return nil
		})
	}()
	if got == nil {
		t.Fatal("worker panic was swallowed")
	}
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "task 3 exploded") || !strings.Contains(msg, "pool_test.go") {
		t.Fatalf("re-panic lost the original value or the worker's stack:\n%s", msg)
	}
	if started.Load() != finished.Load() {
		t.Fatalf("Run returned with %d of %d started tasks still running", started.Load()-finished.Load(), started.Load())
	}
	if started.Load() == 100_000 {
		t.Fatal("every task started although task 3 panicked")
	}
}

// TestRunNestedPanicKeepsInnermostStack: a panic two Runs deep surfaces
// once, with the stack of the goroutine that actually panicked.
func TestRunNestedPanicKeepsInnermostStack(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		_ = Run(context.Background(), 2, 2, func(int) error {
			return Run(context.Background(), 2, 2, func(j int) error {
				if j == 1 {
					innermost()
				}
				return nil
			})
		})
	}()
	msg := fmt.Sprint(got)
	if strings.Count(msg, "pool worker stack:") != 1 || !strings.Contains(msg, "innermost") {
		t.Fatalf("nested panic was re-wrapped or lost its stack:\n%s", msg)
	}
}

func innermost() { panic("deep") }
