package relation

// Core storage and operators; package documentation lives in doc.go.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cqbound/internal/spill"
)

// Value is a single field value: an ID interned in the package dictionary.
// Build one with V("text"); recover the text with Value.String.
type Value uint32

// Tuple is an ordered list of values.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Strings resolves every value of the tuple through the default dictionary.
func (t Tuple) Strings() []string {
	return t.StringsIn(defaultDict)
}

// StringsIn resolves every value of the tuple through the given dictionary
// (nil means the default) — the form used for relations owned by an Engine,
// whose values are interned in a per-engine Dict.
func (t Tuple) StringsIn(d *Dict) []string {
	if d == nil {
		d = defaultDict
	}
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = d.String(v)
	}
	return out
}

// Key returns an injective encoding of the tuple, usable as a map key: the
// fixed-width little-endian packing of its IDs.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 4*len(t))
	for _, v := range t {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return string(buf)
}

// ColumnBuffer is the storage seam between a relation and its column data:
// the per-attribute columns are either plain resident []Value slices (the
// default — every relation built by New) or, for a relation governed by a
// spill.Governor, file-backed segments that the governor may park on disk
// between uses. Cols returns resident columns, reloading them if parked;
// Pin additionally holds them resident until Unpin (operators pin their
// inputs for their duration); Release detaches from any governor, reverting
// the relation to plain resident storage before a mutation.
// Discard drops the spill state without restoring residency — only for
// relations that are garbage (internal/spill.Scope batches one
// evaluation's intermediates through it). *spill.Buffer[Value] is the
// governed implementation.
type ColumnBuffer interface {
	Cols() [][]Value
	Pin() [][]Value
	Unpin()
	Bytes() int64
	Release()
	Discard()
}

// Relation is a named relation with set semantics and columnar storage.
type Relation struct {
	Name  string
	Attrs []string

	n    int       // number of tuples
	cols [][]Value // one column per attribute, each of length n

	// buf, when non-nil, holds the column storage instead of cols: the
	// relation was handed to a spill governor (Govern) and its columns may
	// be parked on disk between uses. Reads go through data(); the first
	// mutation copies the columns back out and, when this relation owns
	// the buffer (bufOwned — Clone/Rename views borrow their parent's
	// buffer instead, so a view never forces governed columns resident for
	// its lifetime), releases it. The fields are written only before the
	// relation is published to other goroutines (Govern at construction)
	// or under the package's single-writer rule (ensureOwned), so readers
	// need no lock.
	buf      ColumnBuffer
	bufOwned bool

	// seen is the set-semantics dedup: the KeyTable of the rows keyed on
	// every column, in which row i has id i. It is built lazily (operators
	// whose outputs are distinct by construction skip it entirely), and a
	// Clone/Rename view probes its parent's while both hold the same rows.
	seen *KeyTable

	// shared marks storage borrowed from parent (Clone/Rename): the column
	// backing arrays belong to another relation and must be copied before
	// the first insert. parent also serves memoized statistics, indexes and
	// the row table while both relations still hold the same rows.
	shared bool
	parent *Relation

	// dict is the dictionary this relation's values are interned in; nil
	// means the process-wide default. Operators propagate it to their
	// outputs so printing and string-sorted enumeration resolve through the
	// owning Engine's dictionary.
	dict *Dict

	// frozen marks a relation published in an epoch snapshot: Insert
	// rejects mutation.
	// extended marks a frozen relation that has already grown a successor
	// in place (Extend): a second Extend of the same base must reallocate
	// its columns rather than fork the shared spare capacity.
	frozen   bool
	extended bool

	// mu guards the memo table (statistics, hash indexes, caller memos)
	// and the in-flight build markers that make memo builds single-flight.
	mu       sync.Mutex
	memos    map[string]memoEntry
	building map[string]chan struct{}
}

// New creates an empty relation. Attribute names must be unique.
func New(name string, attrs ...string) *Relation {
	set := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if set[a] {
			panic(fmt.Sprintf("relation: duplicate attribute %q in %s", a, name))
		}
		set[a] = true
	}
	return &Relation{
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		cols:  make([][]Value, len(attrs)),
	}
}

// NewIn creates an empty relation whose values will be interned in the
// given dictionary (nil means the process-wide default): the constructor
// for relations owned by an Engine. Add interns through it, and String /
// Values resolve through it.
func NewIn(name string, d *Dict, attrs ...string) *Relation {
	r := New(name, attrs...)
	r.dict = d
	return r
}

// Dict returns the dictionary this relation's values resolve through —
// its own when set, the process-wide default otherwise.
func (r *Relation) Dict() *Dict {
	if r.dict != nil {
		return r.dict
	}
	return defaultDict
}

// AdoptDict records d as the relation's dictionary without touching the
// stored IDs: for builders that assemble columns already interned in d
// (NewFromColumns callers, compaction rewrites).
func (r *Relation) AdoptDict(d *Dict) { r.dict = d }

// Freeze marks the relation immutable: Insert returns an error from now
// on. Epoch-published relations are frozen so every reader of a snapshot
// sees exactly the rows that were committed; growth happens by Extend,
// which builds a frozen successor version instead of mutating.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether Freeze was called.
func (r *Relation) Frozen() bool { return r.frozen }

// NewFromColumns wraps already-built columns as a relation without copying
// or a dedup pass: cols[c] is attribute c's column and every column must
// have equal length (nil columns mean an empty relation). The caller hands
// over ownership of the arrays and guarantees the rows are pairwise
// distinct — it is the columnar counterpart of Gather for builders that
// assemble output columns directly (the batch pipelines' sinks do).
func NewFromColumns(name string, attrs []string, cols [][]Value) *Relation {
	if len(cols) != len(attrs) {
		panic(fmt.Sprintf("relation: %d columns for %d attributes in %s", len(cols), len(attrs), name))
	}
	out := New(name, attrs...)
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for c := range cols {
		if len(cols[c]) != n {
			panic(fmt.Sprintf("relation %s: column %d has %d rows, want %d", name, c, len(cols[c]), n))
		}
		out.cols[c] = cols[c]
	}
	out.n = n
	return out
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Size returns the number of (distinct) tuples.
func (r *Relation) Size() int { return r.n }

// data returns the resident columns: plain storage directly, governed
// storage through the buffer (reloading a parked segment on demand). The
// returned arrays are an immutable snapshot for governed relations — valid
// even if the governor evicts the buffer afterwards — so callers may hold
// them across an operator without pinning; pinning additionally keeps the
// bytes accounted resident and stops eviction churn.
func (r *Relation) data() [][]Value {
	if r.buf != nil {
		return r.buf.Cols()
	}
	return r.cols
}

// Govern hands r's column storage to the spill governor: the columns become
// a registered ColumnBuffer the governor may park on disk when its memory
// budget is exceeded. The relation must not be shared with concurrent
// readers yet (call at construction time, before publishing) and must be
// treated as read-only afterwards — the first Insert copies the columns
// back out and releases the buffer. Empty relations and nil governors are
// no-ops, as is governing twice.
func (r *Relation) Govern(g *spill.Governor) {
	if g == nil || r.buf != nil || r.n == 0 {
		return
	}
	r.buf = spill.Manage(g, r.cols, r.n)
	r.bufOwned = true
	r.cols = nil
}

// Governed reports whether r's columns live in a spill-governed buffer.
func (r *Relation) Governed() bool { return r.buf != nil }

// Buffer returns the column buffer r OWNS (nil for plain relations and
// for views borrowing a parent's buffer) — the handle a spill scope
// tracks for end-of-evaluation discard.
func (r *Relation) Buffer() ColumnBuffer {
	if !r.bufOwned {
		return nil
	}
	return r.buf
}

// Pin makes r's columns resident and holds them so until the matching
// Unpin: the spill governor will not evict them mid-operator. Pins nest;
// both are no-ops for ungoverned relations. Operators that scan a relation
// (Gather, Concat, Index builds, HashJoin, SemijoinOn) pin
// their inputs for their duration.
func (r *Relation) Pin() {
	if r.buf != nil {
		r.buf.Pin()
	}
}

// Unpin releases a Pin.
func (r *Relation) Unpin() {
	if r.buf != nil {
		r.buf.Unpin()
	}
}

// Column returns attribute c's column. The slice is the relation's storage:
// callers must treat it as read-only.
func (r *Relation) Column(c int) []Value { return r.data()[c][:r.n] }

// At returns the value at the given row and column.
func (r *Relation) At(row, col int) Value { return r.data()[col][row] }

// Row materializes row i as a fresh tuple.
func (r *Relation) Row(i int) Tuple {
	d := r.data()
	t := make(Tuple, len(d))
	for c := range d {
		t[c] = d[c][i]
	}
	return t
}

// AppendRow appends row i's values to dst and returns the extended slice.
func (r *Relation) AppendRow(dst Tuple, i int) Tuple {
	for _, col := range r.data() {
		dst = append(dst, col[i])
	}
	return dst
}

// Tuples returns a copy of the relation's tuples. The copy is the caller's
// to keep or mutate; the relation is unaffected (copy-on-read — see the
// aliasing regression test). Hot paths should prefer Each, Column, or Row.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	if r.n == 0 {
		return out
	}
	d := r.data()
	flat := make([]Value, r.n*len(d))
	for i := range out {
		t := flat[i*len(d) : (i+1)*len(d) : (i+1)*len(d)]
		for c := range d {
			t[c] = d[c][i]
		}
		out[i] = t
	}
	return out
}

// Each calls f for every tuple until f returns false. The tuple passed to f
// is a reused buffer: it is valid only during the call and must not be
// retained or modified (clone it to keep it).
func (r *Relation) Each(f func(Tuple) bool) {
	d := r.data()
	buf := make(Tuple, len(d))
	for i := 0; i < r.n; i++ {
		for c := range d {
			buf[c] = d[c][i]
		}
		if !f(buf) {
			return
		}
	}
}

// ensureOwned copies shared storage before the first mutation: column
// backing arrays are duplicated, and a view that probed its parent's row
// table builds its own on next use. A governed relation likewise copies its
// columns back out of the spill buffer and releases it — mutation reverts
// the storage contract to plain resident slices.
func (r *Relation) ensureOwned() {
	if r.buf == nil && !r.shared {
		return
	}
	if r.buf != nil {
		d := r.buf.Pin()
		r.cols = make([][]Value, len(d))
		for c := range d {
			r.cols[c] = append([]Value(nil), d[c][:r.n]...)
		}
		r.buf.Unpin()
		if r.bufOwned {
			r.buf.Release()
		}
		r.buf = nil
		r.bufOwned = false
	} else {
		for c := range r.cols {
			r.cols[c] = append([]Value(nil), r.cols[c][:r.n]...)
		}
	}
	r.shared = false
	r.parent = nil
}

// keys returns the row table, building it when an operator skipped it
// (outputs that are distinct by construction defer the cost until Has or
// Insert needs it). The mutex makes the lazy build safe for concurrent
// readers; the table itself is read-only to them by the package's
// single-writer discipline.
func (r *Relation) keys() *KeyTable {
	if p := r.delegate(); p != nil {
		return p.keys()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = r.RowTable()
	}
	return r.seen
}

// RowTable returns a new KeyTable of r's rows keyed on every column, in
// which row i has id i. The build takes one pin, so a governed relation
// reloads at most once. A writer that keeps the table of a version chain
// gives each newly inserted tuple the id of the row Extend appends it at.
func (r *Relation) RowTable() *KeyTable {
	r.Pin()
	defer r.Unpin()
	t := NewKeyTable(r.Arity(), r.n)
	d, pos := r.data(), wholeRow(r.Arity())
	for i := 0; i < r.n; i++ {
		t.Insert(d, pos, i)
	}
	return t
}

// Insert adds a tuple (copied). It reports whether the tuple was new and
// returns an error on arity mismatch.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if r.frozen {
		return false, fmt.Errorf("relation %s: frozen (epoch-published); mutate through a transaction", r.Name)
	}
	if len(t) != len(r.Attrs) {
		return false, fmt.Errorf("relation %s: tuple arity %d != %d", r.Name, len(t), len(r.Attrs))
	}
	if r.keys().FindTuple(t) >= 0 {
		return false, nil
	}
	r.ensureOwned() // a view stops probing its parent's table here
	r.keys().InsertTuple(t)
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], t[c])
	}
	r.n++
	return true, nil
}

// appendRowUnchecked appends a tuple without consulting the row table — for
// operators whose outputs are distinct by construction (joins and filters of
// set-semantics inputs). The relation must not be shared and must not have a
// row table yet.
func (r *Relation) appendRowUnchecked(t Tuple) {
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], t[c])
	}
	r.n++
}

// MustInsert adds the values as a tuple, panicking on arity mismatch.
// Duplicate tuples are silently ignored.
func (r *Relation) MustInsert(vals ...Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Add interns the strings (in the relation's dictionary) and inserts them
// as a tuple, panicking on arity mismatch — the convenience constructor
// tests and generators use.
func (r *Relation) Add(vals ...string) {
	d := r.Dict()
	t := make(Tuple, len(vals))
	for i, s := range vals {
		t[i] = d.Intern(s)
	}
	if _, err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Has reports whether the relation contains the tuple.
func (r *Relation) Has(t Tuple) bool {
	return len(t) == len(r.Attrs) && r.keys().FindTuple(t) >= 0
}

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// share returns a relation with the given name and attributes borrowing r's
// storage copy-on-write.
func (r *Relation) share(name string, attrs []string) *Relation {
	out := New(name, attrs...)
	out.dict = r.dict
	out.n = r.n
	if r.buf != nil {
		// Borrow the governed buffer itself rather than its current arrays:
		// the view reads through the buffer, so a parked parent stays
		// parked until something actually reads, and the governor keeps
		// one accounting entry per stored row set.
		out.buf = r.buf
	} else {
		copy(out.cols, r.cols) // column headers; backing arrays stay r's
	}
	out.shared = true
	out.parent = r
	return out
}

// Clone returns a copy, optionally renamed. Storage is shared copy-on-write:
// the clone is independent for all observable purposes but costs O(arity)
// until the first insert into it.
func (r *Relation) Clone(name string) *Relation {
	if name == "" {
		name = r.Name
	}
	return r.share(name, r.Attrs)
}

// Rename returns a copy with a new name and attribute names, sharing storage
// copy-on-write.
func (r *Relation) Rename(name string, attrs ...string) (*Relation, error) {
	if len(attrs) != len(r.Attrs) {
		return nil, fmt.Errorf("relation %s: rename with %d attrs, arity %d", r.Name, len(attrs), len(r.Attrs))
	}
	return r.share(name, attrs), nil
}

// ProjectedAttrs names the output columns of a projection of attrs onto the
// positions idx: a position that repeats keeps its name the first time and
// gets the suffixes _1, _2, … after that, so the names stay unique — the
// schema every projection (ProjectIdx here, the batch pipelines' sinks)
// must agree on.
func ProjectedAttrs(attrs []string, idx []int) ([]string, error) {
	out := make([]string, len(idx))
	used := make(map[string]int)
	for i, j := range idx {
		if j < 0 || j >= len(attrs) {
			return nil, fmt.Errorf("project position %d out of range", j)
		}
		name := attrs[j]
		if n := used[name]; n > 0 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		used[attrs[j]]++
		out[i] = name
	}
	return out, nil
}

// ProjectIdx projects onto the given positions (0-based); duplicates in the
// result are eliminated. Positions may repeat, in which case attribute names
// are suffixed to stay unique. The dedup reads each key in place from r's
// columns into the output's row table, whose ids are the output's rows.
func (r *Relation) ProjectIdx(idx ...int) (*Relation, error) {
	attrs, err := ProjectedAttrs(r.Attrs, idx)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", r.Name, err)
	}
	out := New(r.Name+"_proj", attrs...)
	out.dict = r.dict
	out.seen = NewKeyTable(len(idx), r.n)
	r.Pin()
	defer r.Unpin()
	d := r.data()
	for row := 0; row < r.n; row++ {
		if _, added := out.seen.Insert(d, idx, row); !added {
			continue
		}
		for i, j := range idx {
			out.cols[i] = append(out.cols[i], d[j][row])
		}
		out.n++
	}
	out.seen.fit()
	return out, nil
}

// Project projects onto the named attributes.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: unknown attribute %q", r.Name, a)
		}
		idx[i] = j
	}
	return r.ProjectIdx(idx...)
}

// Gather materializes the listed rows of r as a new relation with the given
// name (columnar copy, no dedup pass). The rows must be valid indices and,
// because r has set semantics, distinct indices yield distinct tuples — so
// the result is duplicate-free by construction. Gather is the assembly
// primitive of semijoin outputs and hash partitions.
func (r *Relation) Gather(name string, rows []int32) *Relation {
	out := New(name, r.Attrs...)
	out.dict = r.dict
	out.n = len(rows)
	r.Pin()
	defer r.Unpin()
	d := r.data()
	for c := range d {
		col := make([]Value, len(rows))
		src := d[c]
		for k, i := range rows {
			col[k] = src[i]
		}
		out.cols[c] = col
	}
	return out
}

// Concat concatenates parts of equal arity into one owned relation without a
// dedup pass: callers guarantee the parts' tuple sets are pairwise disjoint
// (hash partitions are — tuples in different shards differ on the partition
// column's hash). Attribute names are the caller's.
func Concat(name string, attrs []string, parts ...*Relation) (*Relation, error) {
	out := New(name, attrs...)
	total := 0
	for _, p := range parts {
		if p.Arity() != len(attrs) {
			return nil, fmt.Errorf("relation: concat arity mismatch: part %s has %d attrs, want %d", p.Name, p.Arity(), len(attrs))
		}
		if out.dict == nil {
			out.dict = p.dict
		}
		total += p.n
	}
	data := make([][][]Value, len(parts))
	for i, p := range parts {
		p.Pin()
		defer p.Unpin()
		data[i] = p.data()
	}
	for c := range out.cols {
		col := make([]Value, 0, total)
		for i, p := range parts {
			col = append(col, data[i][c][:p.n]...)
		}
		out.cols[c] = col
	}
	out.n = total
	return out, nil
}

// ProjectView projects r onto the given distinct positions WITHOUT a dedup
// pass, as an O(arity) copy-on-write view renamed to attrs. It is only
// correct when the kept columns functionally determine the dropped ones —
// e.g. a join output whose dropped columns equal kept ones — so callers
// assert duplicate-freeness; use ProjectIdx when in doubt.
func (r *Relation) ProjectView(name string, attrs []string, idx ...int) (*Relation, error) {
	if len(attrs) != len(idx) {
		return nil, fmt.Errorf("relation %s: project view with %d attrs for %d positions", r.Name, len(attrs), len(idx))
	}
	seen := make(map[int]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= len(r.Attrs) {
			return nil, fmt.Errorf("relation %s: project position %d out of range", r.Name, j)
		}
		if seen[j] {
			return nil, fmt.Errorf("relation %s: project view repeats position %d", r.Name, j)
		}
		seen[j] = true
	}
	out := New(name, attrs...)
	out.dict = r.dict
	out.n = r.n
	d := r.data()
	for i, j := range idx {
		out.cols[i] = d[j]
	}
	// Shared storage without a parent: first insert copies the columns, but
	// memos are r's own (r has a different schema, so delegation would serve
	// wrong column positions).
	out.shared = true
	return out, nil
}

// Product returns the cartesian product r × s. Attribute names of s are
// prefixed with its name when they clash.
func Product(r, s *Relation) *Relation {
	out := New(r.Name+"_x_"+s.Name, concatAttrs(r, s)...)
	out.dict = r.dict
	nt := make(Tuple, 0, r.Arity()+s.Arity())
	for i := 0; i < r.n; i++ {
		for j := 0; j < s.n; j++ {
			nt = r.AppendRow(nt[:0], i)
			nt = s.AppendRow(nt, j)
			out.appendRowUnchecked(nt)
		}
	}
	return out
}

// concatAttrs is the joined schema: r's attributes, then s's with clashes
// prefixed by s's name.
func concatAttrs(r, s *Relation) []string {
	attrs := append([]string(nil), r.Attrs...)
	taken := make(map[string]bool)
	for _, a := range attrs {
		taken[a] = true
	}
	for _, a := range s.Attrs {
		name := a
		for taken[name] {
			name = s.Name + "." + name
		}
		taken[name] = true
		attrs = append(attrs, name)
	}
	return attrs
}

// SharedCols lists the column pairs of r and s holding the same attribute
// name — the natural-join (and semijoin) columns. Every name-matching
// operator (NaturalJoin, internal/shard's operators) pairs
// columns through this one helper so they cannot desynchronize.
func SharedCols(r, s *Relation) (rCols, sCols []int) {
	return SharedColsNames(r.Attrs, s.Attrs)
}

// SharedColsNames is SharedCols over bare attribute slices — the form
// internal/shard's operators use, since a pipeline knows its schema
// without materializing a flat relation.
func SharedColsNames(rAttrs, sAttrs []string) (rCols, sCols []int) {
	for j, a := range sAttrs {
		for i, b := range rAttrs {
			if a == b {
				rCols = append(rCols, i)
				sCols = append(sCols, j)
				break
			}
		}
	}
	return rCols, sCols
}

// NaturalJoin joins r and s on all attribute names they share, projecting
// away the duplicated join columns of s.
func NaturalJoin(r, s *Relation) (*Relation, error) {
	rCols, sCols := SharedCols(r, s)
	if len(rCols) == 0 {
		// Degenerates to a product.
		return Product(r, s), nil
	}
	pairs := make([][2]int, len(rCols))
	for i := range rCols {
		pairs[i] = [2]int{rCols[i], sCols[i]}
	}
	joined, err := EquiJoin(r, s, pairs)
	if err != nil {
		return nil, err
	}
	return NaturalJoinView(joined, r, s, sCols)
}

// NaturalJoinView projects a raw equi-join of r and s (all columns of r
// then all columns of s, as HashJoin produces) onto the natural-join
// schema: r's columns plus s's non-join columns (sCols are s's join
// positions), with clean attribute names. Dropping s's copy of the join
// columns cannot create duplicates — those columns equal kept columns of r
// in every output row — so the result is an O(arity) ProjectView instead
// of a dedup pass over the whole output.
func NaturalJoinView(joined, r, s *Relation, sCols []int) (*Relation, error) {
	attrs, keep := NaturalJoinSchema(r.Attrs, s.Attrs, sCols)
	return joined.ProjectView(r.Name+"_nj_"+s.Name, attrs, keep...)
}

// NaturalJoinSchema computes the natural-join output schema from the raw
// equi-join layout (all of r's columns, then all of s's): the attribute
// names of the result — r's attributes plus s's non-join attributes — and
// the raw-join positions to keep. sCols are s's join positions. It is the
// schema-only core of NaturalJoinView, exported so internal/shard's join
// probe can project its raw join without materializing either input: a
// pipeline knows its attributes without holding a flat relation.
func NaturalJoinSchema(rAttrs, sAttrs []string, sCols []int) (attrs []string, keep []int) {
	dropS := make([]bool, len(sAttrs))
	for _, j := range sCols {
		dropS[j] = true
	}
	keep = make([]int, 0, len(rAttrs)+len(sAttrs)-len(sCols))
	attrs = append([]string(nil), rAttrs...)
	for i := 0; i < len(rAttrs); i++ {
		keep = append(keep, i)
	}
	for j := 0; j < len(sAttrs); j++ {
		if !dropS[j] {
			keep = append(keep, len(rAttrs)+j)
			attrs = append(attrs, sAttrs[j])
		}
	}
	return attrs, keep
}

// CheckFD reports whether the instance satisfies the functional dependency
// from (0-based positions) -> to: every posting list of the memoized index
// on from holds a single to value.
func (r *Relation) CheckFD(from []int, to int) bool {
	ix := r.Index(from...)
	r.Pin()
	defer r.Unpin()
	toCol := r.data()[to]
	for k := int32(0); k < int32(len(ix.start)-1); k++ {
		rows := ix.postings(k)
		for _, i := range rows {
			if toCol[i] != toCol[rows[0]] {
				return false
			}
		}
	}
	return true
}

// CheckKey reports whether the (0-based) positions form a key: they
// functionally determine every other position.
func (r *Relation) CheckKey(cols []int) bool {
	for p := 0; p < r.Arity(); p++ {
		inKey := false
		for _, c := range cols {
			if c == p {
				inKey = true
				break
			}
		}
		if !inKey && !r.CheckFD(cols, p) {
			return false
		}
	}
	return true
}

// SortByStringIn sorts values by their interned strings in the given
// dictionary (nil means the default).
func SortByStringIn(d *Dict, vals []Value) {
	if d == nil {
		d = defaultDict
	}
	strs := make([]string, len(vals))
	for i, v := range vals {
		strs[i] = d.String(v)
	}
	sort.Sort(&byResolvedString{vals, strs})
}

type byResolvedString struct {
	vals []Value
	strs []string
}

func (s *byResolvedString) Len() int           { return len(s.vals) }
func (s *byResolvedString) Less(i, j int) bool { return s.strs[i] < s.strs[j] }
func (s *byResolvedString) Swap(i, j int) {
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.strs[i], s.strs[j] = s.strs[j], s.strs[i]
}

// Equal reports whether two relations hold the same set of tuples (attribute
// names are ignored; arity must match).
func Equal(r, s *Relation) bool {
	if r.Arity() != s.Arity() || r.Size() != s.Size() {
		return false
	}
	seen := s.keys()
	r.Pin()
	defer r.Unpin()
	d, pos := r.data(), wholeRow(r.Arity())
	for i := 0; i < r.n; i++ {
		if seen.Find(d, pos, i) < 0 {
			return false
		}
	}
	return true
}

// String renders a small relation for debugging; larger relations are
// summarized.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples]", r.Name, strings.Join(r.Attrs, ","), r.Size())
	if r.Size() <= 16 {
		d := r.Dict()
		r.Each(func(t Tuple) bool {
			fmt.Fprintf(&b, "\n  (%s)", strings.Join(t.StringsIn(d), ","))
			return true
		})
	}
	return b.String()
}
