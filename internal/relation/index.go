package relation

// Hash indexes and the memo table that caches them (together with column
// statistics and caller-provided structures such as the generic join's
// tries) per relation. Everything here is keyed by the relation's size, so
// an insert implicitly invalidates and the next reader rebuilds.

import (
	"encoding/binary"
	"fmt"
)

type memoEntry struct {
	v    any
	size int // relation size the entry was built at
}

// delegate returns the relation whose storage r still shares — Clone and
// Rename borrow their parent's columns until first write — so memoized
// statistics, indexes and tries are built once per stored row set, not once
// per name. It returns nil when r owns its storage or has diverged.
func (r *Relation) delegate() *Relation {
	if p := r.parent; p != nil && r.shared && p.Size() == r.n {
		return p
	}
	return nil
}

// Memo returns the value cached under key, calling build when the key is
// missing or the relation has grown since it was cached. Builds are
// single-flight per key: concurrent callers of a missing entry run build
// exactly once and share its result (waiters block until the builder
// stores). Duplicate builds used to be tolerated as harmless races, but a
// build may now carry side effects — partition builds register governed
// shards with a spill governor, and a losing duplicate would stay
// registered (accounted and on disk) with no owner. build runs outside
// the lock and may use the relation's read API, but must not Memo the
// same key recursively.
func (r *Relation) Memo(key string, build func() any) any {
	if p := r.delegate(); p != nil {
		return p.Memo(key, build)
	}
	for {
		r.mu.Lock()
		if e, ok := r.memos[key]; ok && e.size == r.n {
			r.mu.Unlock()
			return e.v
		}
		if ch, busy := r.building[key]; busy {
			r.mu.Unlock()
			<-ch // wait for the in-flight builder, then re-check
			continue
		}
		ch := make(chan struct{})
		if r.building == nil {
			r.building = make(map[string]chan struct{})
		}
		r.building[key] = ch
		r.mu.Unlock()

		stored := false
		defer func() {
			// On a build panic, release waiters without storing so they
			// retry (or propagate their own panic) instead of hanging.
			if !stored {
				r.mu.Lock()
				delete(r.building, key)
				r.mu.Unlock()
				close(ch)
			}
		}()
		v := build()
		r.mu.Lock()
		if r.memos == nil {
			r.memos = make(map[string]memoEntry)
		}
		r.memos[key] = memoEntry{v: v, size: r.n}
		delete(r.building, key)
		r.mu.Unlock()
		stored = true
		close(ch)
		return v
	}
}

// peekMemo returns the value cached under key without building it —
// callers that can substitute a cheaper approximation (DistinctEstimate)
// use the exact memo when it is already paid for and fall back otherwise.
func (r *Relation) peekMemo(key string) (any, bool) {
	if p := r.delegate(); p != nil {
		return p.peekMemo(key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.memos[key]
	if ok && e.size == r.n {
		return e.v, true
	}
	return nil, false
}

// Index is a hash index over a column list: the fixed-width packing of a
// row's values in those columns maps to every matching row.
type Index struct {
	cols []int
	rows map[string][]int32
}

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return ix.cols }

// Len returns the number of distinct keys.
func (ix *Index) Len() int { return len(ix.rows) }

// Rows returns the rows whose indexed columns pack to key (as built by
// Relation.KeyFor or Tuple.Key over the same columns). The slice is the
// index's storage; treat it as read-only.
func (ix *Index) Rows(key []byte) []int32 { return ix.rows[string(key)] }

// Has reports whether any row matches the key.
func (ix *Index) Has(key []byte) bool {
	_, ok := ix.rows[string(key)]
	return ok
}

// Index returns the hash index over the given columns, built lazily and
// memoized alongside the relation's statistics (rebuilt after inserts,
// shared with renames and clones).
func (r *Relation) Index(cols ...int) *Index {
	for _, c := range cols {
		if c < 0 || c >= r.Arity() {
			panic(fmt.Sprintf("relation %s: index column %d out of range", r.Name, c))
		}
	}
	key := "index:" + string(appendColsKey(nil, cols))
	cs := append([]int(nil), cols...)
	return r.Memo(key, func() any {
		// Pin for the build: one reload at most, and the index scan must
		// not race the spill governor parking the columns row by row.
		r.Pin()
		defer r.Unpin()
		ix := &Index{cols: cs, rows: make(map[string][]int32, r.n)}
		var buf []byte
		for i := 0; i < r.n; i++ {
			buf = r.keyAt(buf[:0], i, cs)
			ix.rows[string(buf)] = append(ix.rows[string(buf)], int32(i))
		}
		return ix
	}).(*Index)
}

// appendColsKey appends a packing of column positions to buf (memo keys).
func appendColsKey(buf []byte, cols []int) []byte {
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// probeBlock is the number of probe-side rows whose keys MatchingRows packs
// into one contiguous buffer before probing: the key-build loop and the map
// probe loop each stay tight, amortizing the per-row buffer bookkeeping of
// the row-at-a-time probe it replaces.
const probeBlock = 512

// MatchingRows probes the index with rows of r keyed on cols (one probe key
// per row, same packing as the index side) and appends to dst the row
// indices with at least one match. Probing is batched: keys for a block of
// rows are packed into one buffer, then the block is probed in a second
// tight loop. cols must have the index's column count.
func (ix *Index) MatchingRows(r *Relation, cols []int, dst []int32) []int32 {
	if len(cols) != len(ix.cols) {
		panic(fmt.Sprintf("relation %s: probing %d columns against a %d-column index", r.Name, len(cols), len(ix.cols)))
	}
	r.Pin()
	defer r.Unpin()
	w := 4 * len(cols) // bytes per packed key
	buf := make([]byte, 0, probeBlock*w)
	for lo := 0; lo < r.n; lo += probeBlock {
		hi := lo + probeBlock
		if hi > r.n {
			hi = r.n
		}
		buf = buf[:0]
		for i := lo; i < hi; i++ {
			buf = r.keyAt(buf, i, cols)
		}
		for i := lo; i < hi; i++ {
			off := (i - lo) * w
			if _, ok := ix.rows[string(buf[off:off+w])]; ok {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst
}

// KeyFor appends the packing of t's values in the given columns to buf —
// the probe-side counterpart of Index.
func KeyFor(buf []byte, t Tuple, cols []int) []byte {
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t[c]))
	}
	return buf
}

// HashJoin joins r and s on the given position pairs (r position, s
// position), keeping all columns of both relations. The smaller side's
// memoized hash index is probed with fixed-width keys; the output needs no
// dedup pass because distinct row pairs concatenate to distinct rows.
func HashJoin(r, s *Relation, pairs [][2]int) (*Relation, error) {
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= r.Arity() || p[1] < 0 || p[1] >= s.Arity() {
			return nil, fmt.Errorf("relation: join positions %v out of range", p)
		}
	}
	// Index the smaller relation.
	build, probe := r, s
	buildSide := 0
	if s.Size() < r.Size() {
		build, probe = s, r
		buildSide = 1
	}
	buildCols := make([]int, len(pairs))
	probeCols := make([]int, len(pairs))
	for i, p := range pairs {
		buildCols[i] = p[buildSide]
		probeCols[i] = p[1-buildSide]
	}
	ix := build.Index(buildCols...)

	// Pin both sides for the probe loop: rows of each are appended to the
	// output tuple by tuple, and the loop must not pay a reload per block.
	r.Pin()
	defer r.Unpin()
	s.Pin()
	defer s.Unpin()
	out := New(r.Name+"_j_"+s.Name, concatAttrs(r, s)...)
	out.dict = r.dict
	nt := make(Tuple, 0, r.Arity()+s.Arity())
	var buf []byte
	for j := 0; j < probe.n; j++ {
		buf = probe.keyAt(buf[:0], j, probeCols)
		for _, i := range ix.Rows(buf) {
			ri, sj := int(i), j
			if buildSide == 1 {
				ri, sj = j, int(i)
			}
			nt = r.AppendRow(nt[:0], ri)
			nt = s.AppendRow(nt, sj)
			out.appendRowUnchecked(nt)
		}
	}
	return out, nil
}

// EquiJoin is HashJoin — the name the seed used; kept as the generic
// equi-join entry point (the sort-merge variant lives in sortmerge.go).
func EquiJoin(r, s *Relation, pairs [][2]int) (*Relation, error) {
	return HashJoin(r, s, pairs)
}

// Semijoin returns r ⋉ s: the tuples of r that join with at least one tuple
// of s on their shared attribute names. With no shared attributes every
// tuple of r joins (unless s is empty), so r itself is returned.
func Semijoin(r, s *Relation) (*Relation, error) {
	rCols, sCols := SharedCols(r, s)
	return SemijoinOn(r, s, rCols, sCols)
}

// SemijoinOn is Semijoin on explicit column pairs: rCols[k] of r joins
// sCols[k] of s. It is the position-pure form the sharded operators use —
// partition shards may carry memoized attribute names from a sibling view,
// so name matching happens once at the routing layer. Empty column lists
// degrade like Semijoin's no-shared-attribute case.
func SemijoinOn(r, s *Relation, rCols, sCols []int) (*Relation, error) {
	if len(rCols) != len(sCols) {
		return nil, fmt.Errorf("relation: semijoin on %d vs %d columns", len(rCols), len(sCols))
	}
	for k := range rCols {
		if rCols[k] < 0 || rCols[k] >= r.Arity() || sCols[k] < 0 || sCols[k] >= s.Arity() {
			return nil, fmt.Errorf("relation: semijoin positions (%d,%d) out of range", rCols[k], sCols[k])
		}
	}
	if len(rCols) == 0 {
		if s.Size() == 0 {
			return New(r.Name+"_sj", r.Attrs...), nil
		}
		return r, nil
	}
	ix := s.Index(sCols...)
	rows := ix.MatchingRows(r, rCols, nil)
	return r.Gather(r.Name+"_sj", rows), nil
}
