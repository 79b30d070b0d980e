package relation

// Delta-segment growth for epoch-published relations. A committed batch
// does not mutate the published version — readers of a pinned epoch keep
// scanning it — it builds a frozen successor with Extend, whose columns
// reuse the base's backing arrays and append the delta rows after them.
// Old readers are bounded by their own row count, the commit path is
// serialized by the Engine, and a base that has already grown a successor
// reallocates instead of forking the shared spare capacity, so the chain
// of versions stays linear and race-free.
//
// The same file holds the incremental memo maintenance: ExtendMemos
// derives the successor's hash indexes and column statistics from the
// base's memoized ones plus the delta rows, and InstallMemo / EachMemo are
// the seams the Engine and internal/shard use to pre-install derived
// entries at commit time and to enumerate memoized partitions during the
// epoch-retirement sweep.

import (
	"fmt"
	"maps"
	"slices"
)

// Extend returns a frozen successor of r holding r's rows followed by the
// delta tuples, without copying the base rows when the backing arrays can
// grow in place. The caller guarantees the delta tuples are distinct from
// each other and from r's rows (the Engine's writer-owned Dedup does); r
// itself is unchanged and is marked so that a second Extend of the same
// base reallocates. Safe against concurrent readers of r and of every
// earlier version in the chain: they bound their scans by their own row
// counts and never see the appended cells.
func (r *Relation) Extend(delta []Tuple) (*Relation, error) {
	for _, t := range delta {
		if len(t) != len(r.Attrs) {
			return nil, fmt.Errorf("relation %s: extend tuple arity %d != %d", r.Name, len(t), len(r.Attrs))
		}
	}
	out := New(r.Name, r.Attrs...)
	out.dict = r.dict
	out.frozen = true
	r.Pin()
	defer r.Unpin()
	d := r.data()
	// In-place growth is sound only when r exclusively owns plain resident
	// arrays and no successor has claimed the spare capacity yet; shared
	// views and governed buffers always reallocate (slices.Clip forces the
	// first append to copy).
	canGrow := !r.extended && !r.shared && r.buf == nil
	for c := range d {
		base := d[c][:r.n]
		if !canGrow {
			base = slices.Clip(base)
		}
		col := base
		for _, t := range delta {
			col = append(col, t[c])
		}
		out.cols[c] = col
	}
	r.extended = true
	out.n = r.n + len(delta)
	return out, nil
}

// Dedup is a writer-owned tuple-key → row-index map over a chain of
// Extend-published relation versions. The published relations themselves
// carry no dedup map (readers rebuild one lazily if they need it); the
// Engine keeps one Dedup per relation chain and updates it in place under
// its commit lock, so append-only commits stay O(delta) instead of paying
// an O(n) rebuild per batch.
type Dedup map[string]int32

// NewDedup builds the map from r's current rows — the O(n) cost paid once
// per relation chain (and again after a retraction rebuilds the chain).
func (r *Relation) NewDedup() Dedup {
	r.Pin()
	defer r.Unpin()
	m := make(Dedup, r.n)
	var buf []byte
	for i := 0; i < r.n; i++ {
		buf = r.rowKey(buf[:0], i)
		m[string(buf)] = int32(i)
	}
	return m
}

// Row returns the row index holding t, if present.
func (d Dedup) Row(t Tuple) (int32, bool) {
	row, ok := d[t.Key()]
	return row, ok
}

// Put records t at the given row index.
func (d Dedup) Put(t Tuple, row int32) { d[t.Key()] = row }

// InstallMemo stores v under key as if it had been built against r's
// current size: the seam for incrementally derived entries — the Engine's
// commit path extends a base version's indexes, statistics and partitions
// and installs the results on the successor, so the first reader of the
// new epoch finds them warm instead of rebuilding from scratch.
func (r *Relation) InstallMemo(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memos == nil {
		r.memos = make(map[string]memoEntry)
	}
	r.memos[key] = memoEntry{v: v, size: r.n}
}

// EachMemo calls f for every memoized entry of r — including STALE ones,
// whose build size no longer matches the relation (valid reports which).
// Stale entries are exactly what the epoch-retirement sweep must see: a
// partition memoized before an insert used to be orphaned invisibly,
// keeping its governed shards registered (and their spill segments on
// disk) until Engine.Close. Iteration stops when f returns false; the
// entries are snapshotted first, so f may call back into r.
func (r *Relation) EachMemo(f func(key string, v any, valid bool) bool) {
	type entry struct {
		key   string
		v     any
		valid bool
	}
	r.mu.Lock()
	snap := make([]entry, 0, len(r.memos))
	for k, e := range r.memos {
		snap = append(snap, entry{k, e.v, e.size == r.n})
	}
	r.mu.Unlock()
	for _, e := range snap {
		if !f(e.key, e.v, e.valid) {
			return
		}
	}
}

// ExtendMemos derives next's memoized hash indexes and column statistics
// from r's valid ones plus next's delta rows (rows r.Size()..next.Size())
// and installs them on next, returning how many entries were derived
// incrementally. Statistics extend only when r retained its per-column
// value sets (frozen relations do); partition memos are extended by
// internal/shard.ExtendPartitions, which owns their governor registration.
func (r *Relation) ExtendMemos(next *Relation) int {
	count := 0
	r.EachMemo(func(key string, v any, valid bool) bool {
		if !valid {
			return true
		}
		switch val := v.(type) {
		case *stats:
			if val.sets == nil || len(val.sets) != next.Arity() {
				return true
			}
			next.InstallMemo(key, extendStats(val, next, r.n))
			count++
		case *Index:
			next.InstallMemo(key, extendIndex(val, next, r.n))
			count++
		case columnRanges:
			if len(val) != next.Arity() {
				return true
			}
			next.InstallMemo(key, extendRanges(val, next, r.n))
			count++
		}
		return true
	})
	return count
}

// extendIndex derives next's index from ix, built over next's first oldN
// rows, by inserting the delta rows' keys into a copy of ix's key table
// and laying the posting lists out afresh. ix itself is never written:
// readers of the retired epoch may still be probing it.
func extendIndex(ix *Index, next *Relation, oldN int) *Index {
	next.Pin()
	defer next.Unpin()
	keyOf := make([]int32, next.n)
	for k := int32(0); k < int32(ix.Len()); k++ {
		for _, i := range ix.postings(k) {
			keyOf[i] = k
		}
	}
	out := &Index{cols: ix.cols, keys: ix.keys.clone()}
	out.addRows(next, keyOf, oldN)
	return out
}

// extendStats unions the delta rows' values into clones of the base's
// per-column value sets. next is frozen, so the successor keeps its sets
// too and the chain extends in O(delta) per batch indefinitely.
func extendStats(s *stats, next *Relation, oldN int) *stats {
	next.Pin()
	defer next.Unpin()
	ns := &stats{
		distinct: make([]int, next.Arity()),
		sets:     make([]map[Value]struct{}, next.Arity()),
	}
	for c := 0; c < next.Arity(); c++ {
		set := maps.Clone(s.sets[c])
		if set == nil {
			set = make(map[Value]struct{})
		}
		for _, v := range next.Column(c)[oldN:] {
			set[v] = struct{}{}
		}
		ns.sets[c] = set
		ns.distinct[c] = len(set)
	}
	return ns
}
