package obs

import (
	"testing"
	"time"
)

// fakeClock advances manually; windows read it through the Clock func.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestCounterWindowedSums(t *testing.T) {
	clk := newFakeClock()
	c := NewCounter(time.Second, 11, clk.now)
	for i := 0; i < 10; i++ {
		c.Add(2)
		clk.advance(time.Second)
	}
	// 10 buckets of 2 behind us; the current bucket is empty.
	if got := c.Sum(5 * time.Second); got != 8 {
		// Window covers the current (empty) bucket plus the 4 before it.
		t.Fatalf("Sum(5s) = %d, want 8", got)
	}
	if got := c.Rate(5 * time.Second); got != 8.0/5 {
		t.Fatalf("Rate(5s) = %g, want %g", got, 8.0/5)
	}
	// Windows longer than the ring cap at the ring span: 10 buckets
	// including the current empty one, so the oldest bucket falls out.
	if got := c.Sum(time.Hour); got != 18 {
		t.Fatalf("Sum(1h) = %d, want the ring-capped 18", got)
	}
	// Old buckets age out as the ring wraps.
	clk.advance(30 * time.Second)
	if got := c.Sum(5 * time.Second); got != 0 {
		t.Fatalf("Sum after idle = %d, want 0", got)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Add(1)
	if c.Sum(time.Minute) != 0 || c.Rate(time.Minute) != 0 {
		t.Fatal("nil counter must read zero")
	}
}

func TestSamplerWindowedQuantiles(t *testing.T) {
	clk := newFakeClock()
	s := NewSampler(time.Second, 61, clk.now)
	// 100 fast observations now, then a slow tail a minute earlier.
	for i := 0; i < 99; i++ {
		s.Observe(1000) // bucket [512, 1024): midpoint 768
	}
	s.Observe(1 << 20) // one outlier
	d := s.Window(10 * time.Second)
	if d.Count != 100 {
		t.Fatalf("Count = %d, want 100", d.Count)
	}
	if d.Sum != 99*1000+1<<20 {
		t.Fatalf("Sum = %d", d.Sum)
	}
	if d.P50 != 768 {
		t.Fatalf("P50 = %d, want the geometric midpoint 768", d.P50)
	}
	if d.P99 < 1<<19 {
		t.Fatalf("P99 = %d, want the outlier's bucket", d.P99)
	}
	// Observations age out of the window.
	clk.advance(30 * time.Second)
	if d := s.Window(10 * time.Second); d.Count != 0 {
		t.Fatalf("Count after idle = %d, want 0", d.Count)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Observe(5)
	if d := s.Window(time.Minute); d.Count != 0 {
		t.Fatal("nil sampler must read zero")
	}
}

func TestWindowsSnapshot(t *testing.T) {
	clk := newFakeClock()
	w := NewWindows(clk.now)
	for i := 0; i < 30; i++ {
		w.Requests.Add(1)
		w.Latency.Observe(1 << 20)
		clk.advance(2 * time.Second)
	}
	w.Shed.Add(3)
	w.CacheHits.Add(6)
	w.CacheMisses.Add(2)
	snap := w.Snapshot(time.Minute)
	if snap.Window != "1m" {
		t.Fatalf("Window label = %q, want 1m", snap.Window)
	}
	// The 1m window is 12 five-second buckets ending at t=60s; the three
	// adds at t=0,2,4s sit in the bucket that just aged out.
	if snap.Requests != 27 {
		t.Fatalf("Requests = %d, want 27", snap.Requests)
	}
	if snap.RequestRate < 0.4 || snap.RequestRate > 0.6 {
		t.Fatalf("RequestRate = %g, want ~0.5/s", snap.RequestRate)
	}
	if snap.Shed != 3 {
		t.Fatalf("Shed = %d", snap.Shed)
	}
	if snap.CacheHitRatio != 0.75 {
		t.Fatalf("CacheHitRatio = %g, want 0.75", snap.CacheHitRatio)
	}
	if snap.LatencyP50Ns == 0 {
		t.Fatal("LatencyP50Ns must be nonzero")
	}
	five := w.Snapshot(5 * time.Minute)
	if five.Window != "5m" || five.Requests != 30 {
		t.Fatalf("5m snapshot = %+v", five)
	}
	var nilW *Windows
	if nilW.Snapshot(time.Minute).Requests != 0 {
		t.Fatal("nil Windows must read zero")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth int
		drain float64
		want  int
	}{
		{depth: 0, drain: 10, want: 1}, // empty queue, fast drain: retry now
		{depth: 5, drain: 10, want: 1}, // drains in half a second
		{depth: 10, drain: 2, want: 5}, // 10 waiting at 2/s
		{depth: 16, drain: 1.5, want: 11},
		{depth: 100, drain: 1, want: 30}, // deep queue clamps to the cap
		{depth: 4, drain: 0, want: 30},   // nothing draining: cap
		{depth: 4, drain: -1, want: 30},  // defensive
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.depth, c.drain); got != c.want {
			t.Errorf("RetryAfterSeconds(%d, %g) = %d, want %d", c.depth, c.drain, got, c.want)
		}
	}
}
