package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cqbound/internal/metrics"
	"cqbound/internal/spill"
)

// registered reads every counter and gauge register adds to a registry.
func registered(register func(*metrics.Registry)) map[string]int64 {
	r := metrics.NewRegistry()
	register(r)
	out := map[string]int64{}
	for _, e := range r.Entries() {
		out[e.Name], _ = r.Value(e.Name)
	}
	return out
}

type admissionStats struct {
	Admitted, Rejected, Queued, QueueTimeouts, Waiting, CommittedBytes, Capacity int64
}

func stats(a *Admission) admissionStats {
	m := registered(a.Register)
	return admissionStats{m["serve_admission_admitted"], m["serve_admission_rejected"], m["serve_admission_queued"],
		m["serve_admission_queue_timeouts"], m["serve_admission_waiting"], m["serve_admission_committed_bytes"],
		m["serve_admission_capacity_bytes"]}
}

func TestAdmitImmediate(t *testing.T) {
	a := NewAdmission(1000, 4, nil)
	t1, err := a.Admit(context.Background(), 600)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	t2, err := a.Admit(context.Background(), 400)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	st := stats(a)
	if st.Admitted != 2 || st.CommittedBytes != 1000 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
	t1.Release()
	t2.Release()
	t2.Release() // idempotent
	if got := stats(a).CommittedBytes; got != 0 {
		t.Fatalf("CommittedBytes after release = %d", got)
	}
}

func TestAdmitClampsOversized(t *testing.T) {
	a := NewAdmission(100, 0, nil)
	tk, err := a.Admit(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("oversized estimate should clamp and admit, got %v", err)
	}
	if got := stats(a).CommittedBytes; got != 100 {
		t.Fatalf("CommittedBytes = %d, want clamp to capacity 100", got)
	}
	tk.Release()
}

func TestAdmitQueuesThenGrantsFIFO(t *testing.T) {
	a := NewAdmission(100, 8, nil)
	first, err := a.Admit(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := a.Admit(context.Background(), 100)
			if err != nil {
				t.Errorf("queued Admit %d: %v", i, err)
				return
			}
			order <- i
			tk.Release()
		}(i)
		// Serialize arrival so FIFO order is observable.
		for a.Waiting() < i {
			time.Sleep(time.Millisecond)
		}
	}
	first.Release()
	wg.Wait()
	if a, b := <-order, <-order; a != 1 || b != 2 {
		t.Fatalf("grant order = %d,%d; want FIFO 1,2", a, b)
	}
	st := stats(a)
	if st.Queued != 2 || st.Admitted != 3 || st.CommittedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmitRejectsWhenQueueFull(t *testing.T) {
	a := NewAdmission(100, 0, nil)
	tk, err := a.Admit(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := stats(a).Rejected; got != 1 {
		t.Fatalf("Rejected = %d", got)
	}
	tk.Release()
}

func TestAdmitQueueTimeout(t *testing.T) {
	a := NewAdmission(100, 4, nil)
	tk, err := a.Admit(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Admit(ctx, 50); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	st := stats(a)
	if st.QueueTimeouts != 1 || st.Waiting != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The timed-out waiter must not wedge the queue: budget still grants.
	tk.Release()
	tk2, err := a.Admit(context.Background(), 100)
	if err != nil {
		t.Fatalf("Admit after timeout: %v", err)
	}
	tk2.Release()
}

func TestAdmitMirrorsGovernorReservations(t *testing.T) {
	g := spill.NewGovernor(1<<20, t.TempDir())
	defer g.Close()
	a := NewAdmission(1000, 4, g)
	tk, err := a.Admit(context.Background(), 700)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ReservedBytes(); got != 700 {
		t.Fatalf("governor ReservedBytes = %d, want 700", got)
	}
	tk.Release()
	if got := g.ReservedBytes(); got != 0 {
		t.Fatalf("governor ReservedBytes after release = %d", got)
	}
}

func TestAdmitConcurrentNeverExceedsCapacity(t *testing.T) {
	const cap = 1000
	a := NewAdmission(cap, 64, nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tk, err := a.Admit(context.Background(), 300)
				if err != nil {
					continue
				}
				if got := stats(a).CommittedBytes; got > cap {
					t.Errorf("CommittedBytes %d exceeds capacity", got)
				}
				tk.Release()
			}
		}()
	}
	wg.Wait()
	if got := stats(a).CommittedBytes; got != 0 {
		t.Fatalf("CommittedBytes drained to %d", got)
	}
}
