package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"cqbound/internal/metrics/counter"
)

// errHalfRange bounds the log₂-ratio error buckets: errors clamp to
// [−32, +32] doublings, one bucket per integer log₂ step. 2^32 of
// over- or under-estimation is already "the bound told us nothing".
const errHalfRange = 32

// errBuckets is the bucket count of one error histogram.
const errBuckets = 2*errHalfRange + 1

// errHist is a log₂-ratio error histogram: observation log₂(pred/actual)
// lands in the bucket of its rounded integer value. Positive error means
// the prediction overshot (the usual case for a worst-case bound),
// negative means it undershot (possible for the System-R estimate).
type errHist struct {
	n       int64
	sum     float64
	min     float64
	max     float64
	buckets [errBuckets]int64
}

func (h *errHist) observe(e float64) {
	if h.n == 0 {
		h.min, h.max = e, e
	} else {
		h.min = math.Min(h.min, e)
		h.max = math.Max(h.max, e)
	}
	h.n++
	h.sum += e
	b := int(math.Round(e)) + errHalfRange
	if b < 0 {
		b = 0
	}
	if b >= errBuckets {
		b = errBuckets - 1
	}
	h.buckets[b]++
}

// quantile returns the upper log₂ bound of the bucket holding rank
// q·n — within one doubling of the true quantile.
func (h *errHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			return float64(i - errHalfRange)
		}
	}
	return 0
}

// ErrSnapshot is one error histogram's point-in-time copy. The quantiles
// are integer log₂ steps (bucket resolution); Buckets holds only nonzero
// buckets keyed by their log₂ value.
type ErrSnapshot struct {
	Count    int64            `json:"count"`
	MeanLog2 float64          `json:"mean_log2"`
	MinLog2  float64          `json:"min_log2"`
	MaxLog2  float64          `json:"max_log2"`
	P50Log2  float64          `json:"p50_log2"`
	P99Log2  float64          `json:"p99_log2"`
	Buckets  map[string]int64 `json:"buckets,omitempty"`
}

func (h *errHist) snapshot() ErrSnapshot {
	s := ErrSnapshot{Count: h.n, MinLog2: h.min, MaxLog2: h.max}
	if h.n == 0 {
		return s
	}
	s.MeanLog2 = h.sum / float64(h.n)
	s.P50Log2 = h.quantile(0.50)
	s.P99Log2 = h.quantile(0.99)
	s.Buckets = make(map[string]int64)
	for i, c := range h.buckets {
		if c != 0 {
			s.Buckets[strconv.Itoa(i-errHalfRange)] = c
		}
	}
	return s
}

// CellKey identifies one calibration cell: the planner's strategy and a
// coarse query shape ("atoms=3/vars=3").
type CellKey struct {
	Strategy string `json:"strategy"`
	Shape    string `json:"shape"`
}

type cell struct {
	count    int64
	bound    errHist
	estimate errHist
}

// Calibration accumulates, per (strategy, shape), the log₂-ratio error
// of the paper's worst-case bound and of the System-R independence
// estimate against actual output cardinalities. Served at /calibration
// and rendered into the Prometheus calibration families; this is the
// empirical record of how tight the Thm 4.4 / AGM bounds run, and the
// estimate-error history ROADMAP 3c's cost model will calibrate on. A nil
// *Calibration ignores everything.
type Calibration struct {
	mu     sync.Mutex
	cells  map[CellKey]*cell
	counts *counter.Set
}

// calibrationCounters is the family of the recorder's counter (registry
// name calibration_records).
var (
	calibrationCounters = counter.NewFamily("calibration")
	records             = calibrationCounters.Counter("records", "evaluations recorded into the calibration cells")
)

// NewCalibration returns an empty recorder.
func NewCalibration() *Calibration {
	return &Calibration{cells: make(map[CellKey]*cell), counts: calibrationCounters.NewSet()}
}

// Counters returns the recorder's counters, for registration.
func (c *Calibration) Counters() *counter.Set { return c.counts }

// Record adds one evaluation's outcome. Predictions and actuals are
// floored at one row before the ratio so empty outputs stay finite (an
// actual of 0 against a bound of 1024 reads as 10 doublings of slack).
// Non-finite bounds (an unpriceable query) are skipped.
func (c *Calibration) Record(strategy, shape string, bound, estimate, actual float64) {
	if c == nil {
		return
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return
	}
	a := math.Max(actual, 1)
	be := math.Log2(math.Max(bound, 1) / a)
	ee := math.Log2(math.Max(estimate, 1) / a)
	k := CellKey{Strategy: strategy, Shape: shape}
	c.mu.Lock()
	cl := c.cells[k]
	if cl == nil {
		cl = &cell{}
		c.cells[k] = cl
	}
	cl.count++
	cl.bound.observe(be)
	cl.estimate.observe(ee)
	c.mu.Unlock()
	c.counts.Add(records, 1)
}

// CellSnapshot is one (strategy, shape) cell's point-in-time copy.
type CellSnapshot struct {
	CellKey
	Count    int64       `json:"count"`
	Bound    ErrSnapshot `json:"bound_log2_error"`
	Estimate ErrSnapshot `json:"estimate_log2_error"`
}

// Snapshot copies every cell, sorted by (strategy, shape) for
// deterministic output.
func (c *Calibration) Snapshot() []CellSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]CellSnapshot, 0, len(c.cells))
	for k, cl := range c.cells {
		out = append(out, CellSnapshot{
			CellKey:  k,
			Count:    cl.count,
			Bound:    cl.bound.snapshot(),
			Estimate: cl.estimate.snapshot(),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strategy != out[j].Strategy {
			return out[i].Strategy < out[j].Strategy
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// Records returns the cumulative number of recorded evaluations.
func (c *Calibration) Records() int64 {
	if c == nil {
		return 0
	}
	return c.counts.Load(records)
}

// Cells returns the current number of (strategy, shape) cells (a gauge).
func (c *Calibration) Cells() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Reset drops every cell and zeroes the record counter.
func (c *Calibration) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cells = make(map[CellKey]*cell)
	c.mu.Unlock()
	c.counts.Reset()
}

// PromFamilies renders the calibration state as two Prometheus histogram
// families — bound and estimate log₂-ratio error — one sample per
// (strategy, shape) cell. Bucket upper bounds are the integer log₂
// errors themselves (−32…+32), so `le="0"` counts evaluations the
// prediction did not overshoot by even one doubling.
func (c *Calibration) PromFamilies() []Family {
	snaps := c.Snapshot()
	mk := func(name, help string, pick func(CellSnapshot) ErrSnapshot) Family {
		f := Family{Name: name, Help: help, Type: TypeHistogram}
		for _, s := range snaps {
			es := pick(s)
			h := &HistData{Count: es.Count, Sum: es.MeanLog2 * float64(es.Count)}
			// Rebuild ascending buckets from the sparse map.
			keys := make([]int, 0, len(es.Buckets))
			for ks := range es.Buckets {
				k, _ := strconv.Atoi(ks)
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				h.Bounds = append(h.Bounds, float64(k))
				h.Counts = append(h.Counts, es.Buckets[strconv.Itoa(k)])
			}
			f.Samples = append(f.Samples, Sample{
				Labels: []Label{{"strategy", s.Strategy}, {"shape", s.Shape}},
				Hist:   h,
			})
		}
		return f
	}
	return []Family{
		mk("calibration_bound_log2_error",
			"log2(paper worst-case bound / actual rows) per strategy and query shape",
			func(s CellSnapshot) ErrSnapshot { return s.Bound }),
		mk("calibration_estimate_log2_error",
			"log2(System-R estimate / actual rows) per strategy and query shape",
			func(s CellSnapshot) ErrSnapshot { return s.Estimate }),
	}
}
