package relation

import (
	"math"
	"strconv"
)

// Cardinality and selectivity estimation for the query planner. V(R,c) —
// the number of distinct values in column c — is the primitive the greedy
// join-ordering heuristic (internal/plan.OrderAtoms) consumes: it scores a
// candidate atom by |R| / Π_v V(R, v) over its already-bound variables.
// Distinct counts are memoized per relation in the same size-keyed memo
// table as the hash indexes — recomputed when the relation grows, shared
// with renames and clones, safe under concurrent readers.

// stats caches per-column distinct value counts.
type stats struct {
	distinct []int // distinct values per column
}

// ensureStats computes (or fetches) per-column distinct counts. Columns are
// contiguous []Value arrays, so each count is a single scan with a uint32
// set.
func (r *Relation) ensureStats() *stats {
	return r.Memo("stats", func() any {
		s := &stats{distinct: make([]int, len(r.Attrs))}
		seen := make(map[Value]struct{}, r.n)
		for c := range r.Attrs {
			clear(seen)
			for _, v := range r.Column(c) {
				seen[v] = struct{}{}
			}
			s.distinct[c] = len(seen)
		}
		return s
	}).(*stats)
}

// DistinctCount returns V(R,c): the number of distinct values in column c
// (0-based). Out-of-range columns report 0.
func (r *Relation) DistinctCount(c int) int {
	if c < 0 || c >= len(r.Attrs) {
		return 0
	}
	return r.ensureStats().distinct[c]
}

// statsSampleCap bounds the rows DistinctEstimate scans when the exact
// statistics are not already memoized: above it the count comes from a
// strided sample instead of a full column scan.
const statsSampleCap = 2048

// DistinctEstimate returns an estimate of V(R,c) cheap enough to compute
// on transient operator outputs: the exact memoized count when the stats
// memo is already built (base and frozen relations after their first
// planning pass), an exact scan for small relations, and a strided GEE
// sample estimate for large unmemoized intermediates — the tracing
// layer's per-operator size estimators run on every traced evaluation,
// and an exact rescan of each fresh intermediate would make tracing
// O(rows) per operator. Out-of-range columns report 0.
func (r *Relation) DistinctEstimate(c int) int {
	if c < 0 || c >= len(r.Attrs) {
		return 0
	}
	if s, ok := r.peekMemo("stats"); ok {
		return s.(*stats).distinct[c]
	}
	if r.Size() <= statsSampleCap {
		return r.ensureStats().distinct[c]
	}
	key := "statsest:" + strconv.Itoa(c)
	return r.Memo(key, func() any {
		return sampleDistinct(r.Column(c))
	}).(int)
}

// sampleDistinct estimates the distinct count of a column from a strided
// sample of ~statsSampleCap values with the GEE estimator
// d̂ = √(n/s)·f1 + (d_s − f1): values seen once in the sample are scaled
// up by the square root of the sampling fraction (they may well recur in
// the unseen rows), values seen twice or more are counted once. The
// result is clamped to [d_s, n].
func sampleDistinct(col []Value) int {
	n := len(col)
	step := n / statsSampleCap
	seen := make(map[Value]int, statsSampleCap)
	s := 0
	for i := 0; i < n; i += step {
		seen[col[i]]++
		s++
	}
	ds, f1 := len(seen), 0
	for _, k := range seen {
		if k == 1 {
			f1++
		}
	}
	est := int(math.Sqrt(float64(n)/float64(s))*float64(f1)) + ds - f1
	return min(max(est, ds), n)
}
