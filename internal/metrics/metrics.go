package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"cqbound/internal/metrics/counter"
)

// Kind is what a registry entry measures. Its String is the Prometheus
// TYPE the entry renders as.
type Kind uint8

const (
	// KindGauge is present state, sampled at read time: it may fall as
	// well as rise, and Reset leaves it alone.
	KindGauge Kind = iota
	// KindCounter is a cumulative count since the registry was built or
	// last Reset.
	KindCounter
	// KindHistogram is a distribution of observations.
	KindHistogram
)

func (k Kind) String() string {
	return [...]string{"gauge", "counter", "histogram"}[k]
}

// Registry holds named metrics: counters (the cells of registered
// counter.Sets),
// gauges (callbacks sampled at read time) and histograms (observation
// distributions). A Registry is safe for concurrent use; reads never block
// writers beyond the registration lock.
type Registry struct {
	mu      sync.Mutex
	order   []string
	entries map[string]*entry
}

// entry is one registered metric: a counter reads its cell, a gauge its
// callback, a histogram its buckets.
type entry struct {
	kind Kind
	help string
	cell *atomic.Int64
	fn   func() int64
	hist *Histogram
}

// value samples a counter or gauge.
func (e *entry) value() int64 {
	if e.cell != nil {
		return e.cell.Load()
	}
	return e.fn()
}

// Entry describes one registered metric.
type Entry struct {
	Name string
	Kind Kind
	Help string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// add registers e under name; re-registering a name replaces the entry in
// place. The caller holds r.mu.
func (r *Registry) add(name string, e *entry) {
	if _, ok := r.entries[name]; !ok {
		r.order = append(r.order, name)
	}
	r.entries[name] = e
}

// Counters registers every counter of s under its name,
// "<family>_<counter>".
func (r *Registry) Counters(s *counter.Set) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range s.Cells() {
		r.add(c.Name, &entry{kind: KindCounter, help: c.Help, cell: c.V})
	}
}

// Gauge registers fn under name; each read calls it for the current value.
func (r *Registry) Gauge(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(name, &entry{kind: KindGauge, help: help, fn: fn})
}

// NewHistogram registers (or returns the existing) histogram under name.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok && e.hist != nil {
		return e.hist
	}
	h := newHistogram()
	r.add(name, &entry{kind: KindHistogram, help: help, hist: h})
	return h
}

// Reset zeroes every counter. Gauges and histograms keep their values.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.cell != nil {
			e.cell.Store(0)
		}
	}
}

// Entries lists every registered metric in registration order — the
// stable order exporters render in.
func (r *Registry) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.order))
	for i, n := range r.order {
		e := r.entries[n]
		out[i] = Entry{Name: n, Kind: e.kind, Help: e.help}
	}
	return out
}

// Value samples the named counter or gauge (0, false when the name is
// neither).
func (r *Registry) Value(name string) (int64, bool) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok || e.hist != nil {
		return 0, false
	}
	return e.value(), true
}

// Histogram returns the named histogram, or nil when the name is not a
// histogram. Exporters use it to reach the raw buckets that
// HistogramSnapshot intentionally omits.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.hist
	}
	return nil
}

// Snapshot samples every metric: counters and gauges as int64, histograms
// as HistogramSnapshot. The map is a fresh copy the caller owns.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	entries := make(map[string]*entry, len(r.entries))
	for k, v := range r.entries {
		entries[k] = v
	}
	r.mu.Unlock()
	out := make(map[string]any, len(entries))
	for n, e := range entries {
		if e.hist != nil {
			out[n] = e.hist.Snapshot()
		} else {
			out[n] = e.value()
		}
	}
	return out
}

// ServeHTTP writes the snapshot as one JSON object, the same shape expvar
// serves on /debug/vars, so existing expvar scrapers can point at it.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "{\n")
	for i, n := range names {
		b, err := json.Marshal(snap[n])
		if err != nil {
			continue
		}
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		fmt.Fprintf(w, "%q: %s%s\n", n, b, comma)
	}
	fmt.Fprintf(w, "}\n")
}

// histBuckets is one bucket per bit length of the observed value: bucket 0
// holds zero and negative observations, bucket i holds values in
// [2^(i-1), 2^i). 64 buckets cover the full int64 range, so Observe never
// range-checks.
const histBuckets = 65

// Histogram is a lock-free power-of-two histogram: Observe is a handful
// of atomic adds, precise counts and sums, and quantiles approximated to
// within a factor of two by the bucket's geometric midpoint — the right
// trade for latency and byte-size distributions read by dashboards.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 until the first observation
	return h
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Buckets copies the raw power-of-two bucket counts, plus the exact sum
// and count, for exporters that render cumulative bucket series. Bucket i
// covers [2^(i-1), 2^i); bucket 0 holds zeros.
func (h *Histogram) Buckets() (buckets []int64, sum, count int64) {
	buckets = make([]int64, histBuckets)
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.sum.Load(), h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram: exact count,
// sum and extremes, quantiles approximate (bucketed by powers of two).
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Snapshot copies the histogram's state. Concurrent Observes may land
// between field reads; each field is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
		return s
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	s.P50 = quantile(&counts, s.Count, 0.50)
	s.P90 = quantile(&counts, s.Count, 0.90)
	s.P99 = quantile(&counts, s.Count, 0.99)
	return s
}

// quantile walks the cumulative bucket counts to the bucket holding rank
// q·total and returns that bucket's geometric midpoint (bucket i covers
// [2^(i-1), 2^i)); bucket 0 is exactly zero.
func quantile(counts *[histBuckets]int64, total int64, q float64) int64 {
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
