package obs

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"time"
)

// Clock supplies the current time; injectable so window tests advance
// time deterministically instead of sleeping.
type Clock func() time.Time

// Default ring geometry: 5-second buckets, enough of them to answer a
// five-minute window plus the partial bucket in progress.
const (
	defaultBucketWidth = 5 * time.Second
	defaultRingBuckets = 61
)

// Counter is a windowed event counter: a ring of fixed-width time buckets
// plus a cumulative total. Add is O(1); Sum/Rate merge the buckets that
// fall inside the asked-for window. A nil *Counter ignores writes and
// reads zero.
type Counter struct {
	mu    sync.Mutex
	clock Clock
	width time.Duration
	slots []counterSlot
	total int64
}

type counterSlot struct {
	idx int64 // absolute bucket index (unix nanos / width); stale slots are reused
	n   int64
}

// NewCounter returns a windowed counter over nslots buckets of the given
// width. The longest answerable window is (nslots-1) × width.
func NewCounter(width time.Duration, nslots int, clock Clock) *Counter {
	if clock == nil {
		clock = time.Now
	}
	return &Counter{clock: clock, width: width, slots: make([]counterSlot, nslots)}
}

// bucketIndex converts a time to an absolute bucket index.
func bucketIndex(t time.Time, width time.Duration) int64 {
	return t.UnixNano() / int64(width)
}

// Add records n events at the current time.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	idx := bucketIndex(c.clock(), c.width)
	c.mu.Lock()
	s := &c.slots[idx%int64(len(c.slots))]
	if s.idx != idx {
		s.idx, s.n = idx, 0
	}
	s.n += n
	c.total += n
	c.mu.Unlock()
}

// Total returns the cumulative count since creation or Reset.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Sum returns the events recorded within the trailing window (the current
// partial bucket included). Windows longer than the ring covers are
// silently capped at the ring's span.
func (c *Counter) Sum(window time.Duration) int64 {
	if c == nil {
		return 0
	}
	cur := bucketIndex(c.clock(), c.width)
	span := int64(window / c.width)
	if span < 1 {
		span = 1
	}
	if max := int64(len(c.slots)) - 1; span > max {
		span = max
	}
	lo := cur - span + 1
	var sum int64
	c.mu.Lock()
	for i := range c.slots {
		if s := &c.slots[i]; s.idx >= lo && s.idx <= cur {
			sum += s.n
		}
	}
	c.mu.Unlock()
	return sum
}

// Rate returns events per second over the trailing window.
func (c *Counter) Rate(window time.Duration) float64 {
	if c == nil || window <= 0 {
		return 0
	}
	if max := time.Duration(len(c.slots)-1) * c.width; window > max {
		window = max
	}
	return float64(c.Sum(window)) / window.Seconds()
}

// Reset zeroes the ring and the cumulative total.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for i := range c.slots {
		c.slots[i] = counterSlot{}
	}
	c.total = 0
	c.mu.Unlock()
}

// samplerBuckets is one bucket per bit length of the observed value,
// matching internal/metrics: bucket 0 holds zeros, bucket i holds values
// in [2^(i-1), 2^i).
const samplerBuckets = 65

// Sampler is a windowed value distribution: each ring bucket carries its
// own power-of-two histogram, and a read merges the buckets inside the
// window into count, sum and approximate quantiles (geometric-midpoint,
// within a factor of two — the same trade internal/metrics makes). A nil
// *Sampler ignores writes and reads zeros.
type Sampler struct {
	mu         sync.Mutex
	clock      Clock
	width      time.Duration
	slots      []samplerSlot
	totalCount int64
	totalSum   int64
}

type samplerSlot struct {
	idx     int64
	count   int64
	sum     int64
	buckets [samplerBuckets]int64
}

// NewSampler returns a windowed sampler over nslots buckets of the given
// width.
func NewSampler(width time.Duration, nslots int, clock Clock) *Sampler {
	if clock == nil {
		clock = time.Now
	}
	return &Sampler{clock: clock, width: width, slots: make([]samplerSlot, nslots)}
}

// Observe records one value (negatives clamp to zero).
func (s *Sampler) Observe(v int64) {
	if s == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(s.clock(), s.width)
	s.mu.Lock()
	sl := &s.slots[idx%int64(len(s.slots))]
	if sl.idx != idx {
		*sl = samplerSlot{idx: idx}
	}
	sl.count++
	sl.sum += v
	sl.buckets[bits.Len64(uint64(v))]++
	s.totalCount++
	s.totalSum += v
	s.mu.Unlock()
}

// Distribution is a merged window of a Sampler: exact count and sum,
// power-of-two-approximate quantiles.
type Distribution struct {
	Count int64
	Sum   int64
	P50   int64
	P99   int64
}

// Window merges the buckets inside the trailing window.
func (s *Sampler) Window(window time.Duration) Distribution {
	if s == nil {
		return Distribution{}
	}
	cur := bucketIndex(s.clock(), s.width)
	span := int64(window / s.width)
	if span < 1 {
		span = 1
	}
	if max := int64(len(s.slots)) - 1; span > max {
		span = max
	}
	lo := cur - span + 1
	var merged [samplerBuckets]int64
	var d Distribution
	s.mu.Lock()
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.idx < lo || sl.idx > cur {
			continue
		}
		d.Count += sl.count
		d.Sum += sl.sum
		for b, n := range sl.buckets {
			merged[b] += n
		}
	}
	s.mu.Unlock()
	if d.Count == 0 {
		return d
	}
	d.P50 = bucketQuantile(&merged, d.Count, 0.50)
	d.P99 = bucketQuantile(&merged, d.Count, 0.99)
	return d
}

// TotalCount returns the cumulative observation count since creation or
// Reset.
func (s *Sampler) TotalCount() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalCount
}

// Reset zeroes the ring and the cumulative totals.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.slots {
		s.slots[i] = samplerSlot{}
	}
	s.totalCount, s.totalSum = 0, 0
	s.mu.Unlock()
}

// bucketQuantile walks cumulative bucket counts to the bucket holding
// rank q·total and returns its geometric midpoint (bucket i covers
// [2^(i-1), 2^i); bucket 0 is exactly zero).
func bucketQuantile(counts *[samplerBuckets]int64, total int64, q float64) int64 {
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			return lo + lo/2
		}
	}
	return 0
}

// Windows bundles the serving path's windowed series: request and shed
// rates, clamps, admission grants (the queue drain rate Retry-After is
// derived from), cache hits/misses, and the latency and queue-wait
// distributions. A nil *Windows ignores everything.
type Windows struct {
	Requests    *Counter
	Shed        *Counter
	Clamped     *Counter
	Grants      *Counter
	CacheHits   *Counter
	CacheMisses *Counter
	Latency     *Sampler
	QueueWait   *Sampler
}

// NewWindows builds the serving window set over the default ring
// geometry (5s × 61 buckets, answering up to 5m).
func NewWindows(clock Clock) *Windows {
	c := func() *Counter { return NewCounter(defaultBucketWidth, defaultRingBuckets, clock) }
	s := func() *Sampler { return NewSampler(defaultBucketWidth, defaultRingBuckets, clock) }
	return &Windows{
		Requests:    c(),
		Shed:        c(),
		Clamped:     c(),
		Grants:      c(),
		CacheHits:   c(),
		CacheMisses: c(),
		Latency:     s(),
		QueueWait:   s(),
	}
}

// Reset zeroes every series.
func (w *Windows) Reset() {
	if w == nil {
		return
	}
	w.Requests.Reset()
	w.Shed.Reset()
	w.Clamped.Reset()
	w.Grants.Reset()
	w.CacheHits.Reset()
	w.CacheMisses.Reset()
	w.Latency.Reset()
	w.QueueWait.Reset()
}

// WindowSnapshot is one trailing window's merged view of the serving
// path, served under /metrics and rendered into the Prometheus families.
type WindowSnapshot struct {
	Window         string  `json:"window"`
	Requests       int64   `json:"requests"`
	Shed           int64   `json:"shed"`
	Clamped        int64   `json:"clamped"`
	Grants         int64   `json:"grants"`
	RequestRate    float64 `json:"request_rate_per_s"`
	ShedRate       float64 `json:"shed_rate_per_s"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	LatencyP50Ns   int64   `json:"latency_p50_ns"`
	LatencyP99Ns   int64   `json:"latency_p99_ns"`
	QueueWaitP50Ns int64   `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns int64   `json:"queue_wait_p99_ns"`
}

// Snapshot merges the trailing window d across every series. The label
// renders d compactly ("1m0s" → "1m").
func (w *Windows) Snapshot(d time.Duration) WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	snap := WindowSnapshot{
		Window:      shortWindow(d),
		Requests:    w.Requests.Sum(d),
		Shed:        w.Shed.Sum(d),
		Clamped:     w.Clamped.Sum(d),
		Grants:      w.Grants.Sum(d),
		RequestRate: w.Requests.Rate(d),
		ShedRate:    w.Shed.Rate(d),
	}
	hits, misses := w.CacheHits.Sum(d), w.CacheMisses.Sum(d)
	if hits+misses > 0 {
		snap.CacheHitRatio = float64(hits) / float64(hits+misses)
	}
	lat := w.Latency.Window(d)
	snap.LatencyP50Ns, snap.LatencyP99Ns = lat.P50, lat.P99
	qw := w.QueueWait.Window(d)
	snap.QueueWaitP50Ns, snap.QueueWaitP99Ns = qw.P50, qw.P99
	return snap
}

// shortWindow renders 60s as "1m", 300s as "5m", leaving the rest to
// time.Duration.
func shortWindow(d time.Duration) string {
	if d >= time.Minute && d%time.Minute == 0 {
		return strconv.Itoa(int(d/time.Minute)) + "m"
	}
	return d.String()
}

// RetryAfterSeconds estimates how long a shed client should wait before
// retrying: the time the current queue needs to drain at the observed
// windowed grant rate, clamped to [1, 30] seconds. A zero drain rate
// (nothing has been admitted in the window — the budget is saturated by
// long-running queries) returns the cap.
func RetryAfterSeconds(queueDepth int, drainPerSec float64) int {
	const maxRetryAfter = 30
	if queueDepth < 1 {
		queueDepth = 1
	}
	if drainPerSec <= 0 {
		return maxRetryAfter
	}
	s := int(math.Ceil(float64(queueDepth) / drainPerSec))
	if s < 1 {
		return 1
	}
	if s > maxRetryAfter {
		return maxRetryAfter
	}
	return s
}
