package relation

// Indexes and the memo table that caches them (together with column
// statistics, value ranges and caller-provided structures such as
// internal/eval's repeated-variable bindings) per relation. Everything
// here is keyed by the relation's size, so an insert implicitly
// invalidates and the next reader rebuilds.

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
// statistics and indexes are built once per stored row set, not once per
// name. It returns nil when r owns its storage or has diverged.
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
// stores), so a structure many concurrent readers ask for at once — the
// index every part of a pipeline probes — is built once. build runs outside
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

// Index is an index over a column list: a KeyTable of the distinct
// keys the rows hold in those columns, and every key's posting list — the
// ascending row ids holding it — as one segment of a single row-id array.
//
// A one-column index over a narrow value range is direct-addressed
// instead: it has no KeyTable, and value v's posting list is the segment
// at start[v−lo], so a probe is one subtraction and two loads, with no
// hashing and no equality check. An index is direct when its column's
// memoized ValueRange is at most 4·rows + 64 values wide. The offset table
// then costs at most 16 bytes per row, no more than the hash build's slots
// and key arena (15–29 bytes per row at the build's hint, before fit), and
// the +64 lets a small relation over a short range go direct too.
type Index struct {
	cols  []int
	keys  *KeyTable // nil when direct-addressed
	lo    Value     // direct: start[v-lo] is value v's posting offset
	n     int       // direct: the distinct values held
	start []int32   // key k's rows are rows[start[k]:start[k+1]]
	rows  []int32
}

// directWidth reports whether a one-column index over rows rows whose
// values span g is direct-addressed (see Index).
func directWidth(g Range, rows int) bool {
	return g.Width() <= 4*uint64(rows)+64
}

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return ix.cols }

// Len returns the number of distinct keys.
func (ix *Index) Len() int {
	if ix.keys == nil {
		return ix.n
	}
	return ix.keys.Len()
}

// find returns the posting-list slot of the key at (cols, pos, row), or
// -1 when no row holds it.
func (ix *Index) find(cols [][]Value, pos []int, row int) int32 {
	if ix.keys != nil {
		return ix.keys.Find(cols, pos, row)
	}
	// A value below lo wraps around to a slot past the table.
	k := uint64(cols[pos[0]][row] - ix.lo)
	if k >= uint64(len(ix.start)-1) || ix.start[k] == ix.start[k+1] {
		return -1
	}
	return int32(k)
}

// Rows returns the rows whose indexed columns hold the key at (cols, pos,
// row) — the probe row's values in its columns pos, one per indexed
// column. The slice is the index's storage; treat it as read-only.
func (ix *Index) Rows(cols [][]Value, pos []int, row int) []int32 {
	k := ix.find(cols, pos, row)
	if k < 0 {
		return nil
	}
	return ix.postings(k)
}

// postings returns posting list k: key id k's rows, or value lo+k's when
// the index is direct-addressed (empty for a value no row holds).
func (ix *Index) postings(k int32) []int32 {
	return ix.rows[ix.start[k]:ix.start[k+1]]
}

// Has reports whether any row matches the key at (cols, pos, row).
func (ix *Index) Has(cols [][]Value, pos []int, row int) bool {
	return ix.find(cols, pos, row) >= 0
}

// Index returns the index over the given columns, built lazily and
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
		ix := &Index{cols: cs}
		if len(cs) == 1 {
			if g := r.ValueRange(cs[0]); directWidth(g, r.n) {
				ix.addRowsDirect(r.Column(cs[0]), g)
				return ix
			}
		}
		ix.keys = NewKeyTable(len(cs), r.n)
		ix.addRows(r)
		return ix
	}).(*Index)
}

// addRows inserts the keys of r's rows into ix's empty table and lays out
// every posting list. The table is fitted to its keys afterwards, so the
// hint an index is built with does not outlive the build.
func (ix *Index) addRows(r *Relation) {
	d := r.data()
	keyOf := make([]int32, r.n)
	for i := range keyOf {
		keyOf[i], _ = ix.keys.Insert(d, ix.cols, i)
	}
	ix.keys.fit()
	// A counting sort of the rows by key id: start[k+1] counts key k's
	// rows and, summed, marks the end of key k's list; filling from the
	// last row steps each mark back to its list's first slot, so the lists
	// come out ascending and a shift by one leaves start[k] at key k's.
	ix.start = make([]int32, ix.keys.Len()+1)
	for _, k := range keyOf {
		ix.start[k+1]++
	}
	for k := 1; k < len(ix.start); k++ {
		ix.start[k] += ix.start[k-1]
	}
	ix.rows = make([]int32, len(keyOf))
	for i := len(keyOf) - 1; i >= 0; i-- {
		k := keyOf[i] + 1
		ix.start[k]--
		ix.rows[ix.start[k]] = int32(i)
	}
	copy(ix.start, ix.start[1:])
	ix.start[len(ix.start)-1] = int32(len(keyOf))
}

// addRowsDirect lays out the posting lists of a direct-addressed index
// over col, whose values lie in g: addRows' counting sort with v−lo as
// the key id, one slot per value of the range.
func (ix *Index) addRowsDirect(col []Value, g Range) {
	ix.lo = g.Lo
	ix.start = make([]int32, g.Width()+1)
	for _, v := range col {
		ix.start[v-g.Lo+1]++
	}
	for k := 1; k < len(ix.start); k++ {
		if ix.start[k] > 0 {
			ix.n++
		}
		ix.start[k] += ix.start[k-1]
	}
	ix.rows = make([]int32, len(col))
	for i := len(col) - 1; i >= 0; i-- {
		k := col[i] - g.Lo + 1
		ix.start[k]--
		ix.rows[ix.start[k]] = int32(i)
	}
	copy(ix.start, ix.start[1:])
	ix.start[len(ix.start)-1] = int32(len(col))
}

// appendColsKey appends a packing of column positions to buf (memo keys).
func appendColsKey(buf []byte, cols []int) []byte {
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// MatchingRows probes the index with the rows of r keyed on cols and
// appends to dst the row indices with at least one match. cols must have
// the index's column count.
func (ix *Index) MatchingRows(r *Relation, cols []int, dst []int32) []int32 {
	if len(cols) != len(ix.cols) {
		panic(fmt.Sprintf("relation %s: probing %d columns against a %d-column index", r.Name, len(cols), len(ix.cols)))
	}
	r.Pin()
	defer r.Unpin()
	d := r.data()
	for i := 0; i < r.n; i++ {
		if ix.Has(d, cols, i) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// HashJoin joins r and s on the given position pairs (r position, s
// position), keeping all columns of both relations. The smaller side's
// memoized hash index is probed row by row in place; the output needs no
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
	pd := probe.data()
	for j := 0; j < probe.n; j++ {
		for _, i := range ix.Rows(pd, probeCols, j) {
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

// EquiJoin is HashJoin under the generic equi-join name.
func EquiJoin(r, s *Relation, pairs [][2]int) (*Relation, error) {
	return HashJoin(r, s, pairs)
}

// SemijoinOn returns r ⋉ s on explicit column pairs: the tuples of r
// whose column rCols[k] equals column sCols[k] of some tuple of s, for
// every k. It is position-pure: name matching (SharedCols) is the
// caller's. With empty column lists every tuple
// of r joins unless s is empty, so r itself is returned.
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
