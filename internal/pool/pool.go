// Package pool is a bounded parallel for-loop honoring context
// cancellation: the worker pool behind the parallel Yannakakis semijoin
// passes and the Engine's batch evaluation API. It exists so every parallel
// site in the module shares one tested implementation instead of growing
// ad-hoc WaitGroup choreography.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool width used when callers pass workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run calls f(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means DefaultWorkers). The first error stops remaining
// tasks from starting — tasks already running finish — and is returned;
// context cancellation does the same and returns ctx.Err(). f must be safe
// for concurrent invocation; Run itself may be called from inside a task
// (nested fan-out oversubscribes CPUs modestly rather than deadlocking).
//
// A panic in f is never swallowed and never takes the process down from a
// goroutine nobody can recover on: Run stops remaining tasks as for an
// error, waits for the running ones, and panics again on the calling
// goroutine — where a caller's recover (net/http's per-connection one, a
// test's) sees it — with a value that prints the original value and the
// worker's stack.
func Run(ctx context.Context, workers, n int, f func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		crash error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				wp := recovered(v)
				mu.Lock()
				if crash == nil {
					crash = wp
				}
				mu.Unlock()
				cancel()
			}()
			for {
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if crash != nil {
		panic(crash)
	}
	if first != nil {
		return first
	}
	return ctx.Err()
}

// recovered wraps a value recovered on a worker goroutine for panicking
// again on the goroutine that consumes the worker's results: the re-panic
// prints the original value plus the worker's stack, which it would
// otherwise lose. Call it in the deferred function that recovered, while
// the panicking stack is still live. A value that already carries a worker
// stack (a nested re-panic) passes through, keeping the innermost stack.
func recovered(v any) error {
	if wp, ok := v.(*workerPanic); ok {
		return wp
	}
	return &workerPanic{value: v, stack: debug.Stack()}
}

// workerPanic is what Run panics with after a worker panicked: the
// original value plus the worker's stack.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\npool worker stack:\n%s", p.value, p.stack)
}
