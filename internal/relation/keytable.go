package relation

// KeyTable is the one hashed tuple structure: the distinct keys of a
// relation.Index, a relation's row table (its set-semantics dedup), the
// commit writer's dedup of a version chain, and batch.Project's dedup set.

import "fmt"

// KeyTable is a flat open-addressing set of fixed-width keys, each key a
// row of Values. Keys live inline, in insertion order, in one pointer-free
// arena; a key's position in that order is its dense id (0, 1, 2, …), which
// callers use to index side arrays such as an index's posting offsets. The
// slot array is probed linearly and doubles when it is three quarters
// full; each slot holds a 32-bit hash tag and an id, so a probe compares
// keys only on a tag match and a growth re-places slots by their tags
// without touching the arena.
//
// Keys are read in place from columnar storage: the key at (cols, pos,
// row) is cols[pos[0]][row], cols[pos[1]][row], … — a relation's columns
// or a batch's, with pos naming the key columns — so neither inserting
// nor probing packs a key first. The table is not safe for concurrent
// writers; concurrent Finds are safe once writing has stopped.
type KeyTable struct {
	width int
	keys  []Value // the arena: key id k is keys[k*width : (k+1)*width]
	slots []slot  // power-of-two length
	shift uint    // a tag's home slot is tag >> shift
	n     int     // keys stored
	limit int     // n at which the slots double
}

// slot is one entry of the probe array: id is the key's dense id plus one,
// so the zero slot is empty.
type slot struct {
	tag uint32
	id  uint32
}

// minSlots is the smallest slot array a table starts with.
const minSlots = 8

// NewKeyTable returns an empty table of keys of the given width, sized so
// that hint keys fit without growing.
func NewKeyTable(width, hint int) *KeyTable {
	t := &KeyTable{width: width}
	size := minSlots
	for size*3/4 < hint {
		size *= 2
	}
	t.resize(size)
	return t
}

// Len returns the number of distinct keys stored.
func (t *KeyTable) Len() int { return t.n }

// key returns the values of the key with the given id. The slice is the
// table's storage; treat it as read-only.
func (t *KeyTable) key(id int32) []Value {
	k := int(id) * t.width
	return t.keys[k : k+t.width : k+t.width]
}

// Insert adds the key at (cols, pos, row) unless it is present, and
// returns its id and whether it was new.
func (t *KeyTable) Insert(cols [][]Value, pos []int, row int) (int32, bool) {
	if t.n >= t.limit {
		t.resize(2 * len(t.slots))
	}
	tag := t.hash(cols, pos, row)
	mask := len(t.slots) - 1
	i := int(tag >> t.shift)
	for ; t.slots[i].id != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && t.equal(s.id-1, cols, pos, row) {
			return int32(s.id - 1), false
		}
	}
	id := t.n
	t.slots[i] = slot{tag: tag, id: uint32(id + 1)}
	for _, p := range pos {
		t.keys = append(t.keys, cols[p][row])
	}
	t.n++
	return int32(id), true
}

// Find returns the id of the key at (cols, pos, row), or -1 when the table
// does not hold it.
func (t *KeyTable) Find(cols [][]Value, pos []int, row int) int32 {
	tag := t.hash(cols, pos, row)
	mask := len(t.slots) - 1
	for i := int(tag >> t.shift); t.slots[i].id != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && t.equal(s.id-1, cols, pos, row) {
			return int32(s.id - 1)
		}
	}
	return -1
}

// InsertTuple is Insert for the key tp, in a table keyed on whole rows.
func (t *KeyTable) InsertTuple(tp Tuple) (int32, bool) {
	var buf [8][]Value
	return t.Insert(tupleCols(tp, buf[:0]), wholeRow(len(tp)), 0)
}

// FindTuple is Find for the key tp, in a table keyed on whole rows.
func (t *KeyTable) FindTuple(tp Tuple) int32 {
	var buf [8][]Value
	return t.Find(tupleCols(tp, buf[:0]), wholeRow(len(tp)), 0)
}

// tupleCols appends tp to buf as one-row columns: the key at (the result,
// wholeRow(len(tp)), 0) is tp.
func tupleCols(tp Tuple, buf [][]Value) [][]Value {
	for i := range tp {
		buf = append(buf, tp[i:i+1])
	}
	return buf
}

// rowPos holds the positions 0, 1, 2, … that key a table on whole rows.
var rowPos = func() (p [16]int) {
	for i := range p {
		p[i] = i
	}
	return p
}()

// wholeRow returns the positions 0 … n-1, allocating only past len(rowPos).
func wholeRow(n int) []int {
	if n <= len(rowPos) {
		return rowPos[:n:n]
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// hash returns the tag of the key at (cols, pos, row): a multiplicative
// combine of its values, finalized so every output bit depends on every
// input bit (the home slot takes the tag's top bits).
func (t *KeyTable) hash(cols [][]Value, pos []int, row int) uint32 {
	if len(pos) != t.width {
		panic(fmt.Sprintf("relation: %d-column key for a %d-column key table", len(pos), t.width))
	}
	h := uint64(t.width)
	for _, p := range pos {
		h = (h ^ uint64(cols[p][row])) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h >> 32)
}

// equal reports whether stored key id equals the key at (cols, pos, row).
func (t *KeyTable) equal(id uint32, cols [][]Value, pos []int, row int) bool {
	k := t.keys[int(id)*t.width:]
	for i, p := range pos {
		if k[i] != cols[p][row] {
			return false
		}
	}
	return true
}

// resize moves the table to a slot array of the given power-of-two size,
// re-placing every slot by its tag, and gives the arena room for the keys
// the new size admits, so appending a key never reallocates.
func (t *KeyTable) resize(size int) {
	old := t.slots
	t.slots = make([]slot, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.limit = size * 3 / 4
	mask := size - 1
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := int(s.tag >> t.shift)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
	keys := make([]Value, len(t.keys), t.limit*t.width)
	copy(keys, t.keys)
	t.keys = keys
}

// fit shrinks a table built with a hint far above its final key count to
// the size that count would have grown to, so a long-lived table does not
// keep the slack of its hint.
func (t *KeyTable) fit() {
	size := minSlots
	for size*3/4 < t.n {
		size *= 2
	}
	if size < len(t.slots)/2 {
		t.resize(size)
	}
}
