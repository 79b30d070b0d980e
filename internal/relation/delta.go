package relation

// Delta-segment growth for epoch-published relations. A committed batch
// does not mutate the published version — readers of a pinned epoch keep
// scanning it — it builds a frozen successor with Extend, whose columns
// reuse the base's backing arrays and append the delta rows after them.
// Old readers are bounded by their own row count, the commit path is
// serialized by the Engine, and a base that has already grown a successor
// reallocates instead of forking the shared spare capacity, so the chain
// of versions stays linear and race-free. A successor starts with an
// empty memo table: each epoch builds its indexes, statistics and
// partitions lazily, on first read.

import (
	"fmt"
	"slices"
)

// Extend returns a frozen successor of r holding r's rows followed by the
// delta tuples, without copying the base rows when the backing arrays can
// grow in place. The caller guarantees the delta tuples are distinct from
// each other and from r's rows (the Engine writer's row table of the chain does); r
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

// EachMemo calls f for every memoized entry of r — including STALE ones,
// whose build size no longer matches the relation (valid reports which),
// so a caller can see what an insert orphaned. Iteration stops when f
// returns false; the entries are snapshotted first, so f may call back
// into r.
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
