package serve

import (
	"context"
	"errors"
	"sync"

	"cqbound/internal/metrics"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/spill"
)

// ErrOverloaded is returned by Admit when the budget is fully committed and
// the wait queue is at capacity. HTTP handlers map it to 429.
var ErrOverloaded = errors.New("serve: overloaded, admission queue full")

// Admission rations a byte budget across concurrent queries. Each query
// asks for its planner-derived worst-case size before running; Admit grants
// immediately while total grants fit the capacity, parks the caller in a
// bounded FIFO queue while they do not, and fails fast with ErrOverloaded
// once the queue is full. Grants are released through the returned Ticket.
//
// Admission is bookkeeping over estimates, not enforcement: an admitted
// query that outgrows its reservation spills under the governor rather than
// being killed. The controller's job is to keep the sum of worst cases
// bounded so the governor evicts occasionally instead of thrashing.
type Admission struct {
	capacity int64
	maxQueue int
	gov      *spill.Governor // may be nil; mirrors reservations for /metrics

	mu        sync.Mutex
	committed int64
	queue     []*waiter // FIFO; head is next to be granted

	counts *counter.Set
}

type waiter struct {
	bytes   int64
	ready   chan struct{}
	granted bool // guarded by Admission.mu
}

// admissionCounters is the family of the controller's counters (registry
// names serve_admission_*).
var (
	admissionCounters = counter.NewFamily("serve_admission")
	admitted          = admissionCounters.Counter("admitted", "queries granted budget, immediately or after queueing")
	rejected          = admissionCounters.Counter("rejected", "queries refused because the wait queue was full (HTTP 429)")
	queued            = admissionCounters.Counter("queued", "queries that had to wait before a grant or a timeout")
	queueTimeouts     = admissionCounters.Counter("queue_timeouts", "queued queries whose context expired before a grant")
)

// NewAdmission returns a controller over a capacity-byte budget with at
// most maxQueue waiting requests. capacity must be positive; maxQueue may
// be zero (queue nothing, reject on contention). gov, when non-nil,
// receives Reserve/Unreserve mirroring every grant so the spill gauges
// show committed bytes next to resident bytes.
func NewAdmission(capacity int64, maxQueue int, gov *spill.Governor) *Admission {
	if capacity <= 0 {
		panic("serve: admission capacity must be positive")
	}
	if maxQueue < 0 {
		panic("serve: negative admission queue")
	}
	return &Admission{capacity: capacity, maxQueue: maxQueue, gov: gov, counts: admissionCounters.NewSet()}
}

// Admit blocks until bytes of budget are granted, the queue overflows
// (ErrOverloaded), or ctx expires (its error). Estimates above the whole
// capacity are clamped to it — the query runs, alone. On success the caller
// owns a Ticket and must Release it when the query finishes, successfully
// or not.
func (a *Admission) Admit(ctx context.Context, bytes int64) (*Ticket, error) {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > a.capacity {
		bytes = a.capacity
	}
	a.mu.Lock()
	if a.committed+bytes <= a.capacity && len(a.queue) == 0 {
		a.grantLocked(bytes)
		a.mu.Unlock()
		return &Ticket{a: a, bytes: bytes}, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.counts.Add(rejected, 1)
		a.mu.Unlock()
		return nil, ErrOverloaded
	}
	w := &waiter{bytes: bytes, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.counts.Add(queued, 1)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return &Ticket{a: a, bytes: bytes}, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; hand it back and let the
			// next waiter have it.
			a.mu.Unlock()
			t := &Ticket{a: a, bytes: bytes}
			t.Release()
			return nil, ctx.Err()
		}
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				break
			}
		}
		a.counts.Add(queueTimeouts, 1)
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// grantLocked commits bytes and mirrors the reservation. Callers hold a.mu.
func (a *Admission) grantLocked(bytes int64) {
	a.committed += bytes
	a.counts.Add(admitted, 1)
	a.gov.Reserve(bytes)
}

// release returns a grant and wakes every queued waiter that now fits, in
// FIFO order; the first waiter that does not fit blocks the rest so arrival
// order is preserved (no starvation of large requests by a stream of small
// ones).
func (a *Admission) release(bytes int64) {
	a.mu.Lock()
	a.committed -= bytes
	a.gov.Unreserve(bytes)
	for len(a.queue) > 0 {
		w := a.queue[0]
		if a.committed+w.bytes > a.capacity {
			break
		}
		a.queue = a.queue[1:]
		w.granted = true
		a.grantLocked(w.bytes)
		close(w.ready)
	}
	a.mu.Unlock()
}

// Capacity returns the configured budget.
func (a *Admission) Capacity() int64 { return a.capacity }

// Waiting returns the current queue length.
func (a *Admission) Waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Register adds the controller's counters and gauges to r.
func (a *Admission) Register(r *metrics.Registry) {
	r.Counters(a.counts)
	r.Gauge("serve_admission_waiting", "queries waiting for budget now",
		func() int64 { return int64(a.Waiting()) })
	r.Gauge("serve_admission_committed_bytes", "budget granted to admitted queries now", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.committed
	})
	r.Gauge("serve_admission_capacity_bytes", "the configured admission budget", a.Capacity)
}

// Ticket is an admission grant. Release returns the budget; it is
// idempotent and safe to defer alongside error paths.
type Ticket struct {
	a     *Admission
	bytes int64
	once  sync.Once
}

// Release hands the ticket's budget back and wakes queued waiters that now
// fit. Calling Release more than once is a no-op.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(func() { t.a.release(t.bytes) })
}
