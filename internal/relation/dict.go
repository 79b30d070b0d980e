package relation

import (
	"fmt"
	"sync"
)

// Dict is a bidirectional string ↔ ID dictionary: the interning layer that
// turns every field value into a fixed-width Value (a uint32). All relational
// operators — dedup, joins, semijoins, generic join — compare and hash plain
// integers; the original strings are needed only at the parser/printer
// boundary.
//
// IDs must be comparable across relations for joins to make sense, including
// joins of relations that were built standalone and never registered in the
// same Database. The package therefore keeps one process-wide default
// dictionary; database.Database exposes it via its Dict method. A Dict grows
// monotonically (interned strings are never released), which matches the
// append-only relations it serves; CompactInto copies the strings still in
// use into a fresh one.
//
// A Dict is safe for concurrent use.
type Dict struct {
	mu   sync.RWMutex
	strs []string
	ids  map[string]Value
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]Value)}
}

// defaultDict is the process-wide dictionary behind V, Value.String, and
// every relation in the process.
var defaultDict = NewDict()

// DefaultDict returns the process-wide dictionary.
func DefaultDict() *Dict { return defaultDict }

// Intern returns the ID for s, assigning the next free ID on first sight.
func (d *Dict) Intern(s string) Value {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	id = Value(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

// Lookup returns the ID for s without interning it. The second result is
// false when s has never been interned — useful for probes: a constant
// missing from the dictionary cannot match any stored tuple.
func (d *Dict) Lookup(s string) (Value, bool) {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	return id, ok
}

// String resolves an ID back to its string. Unknown IDs render as "#<id>".
func (d *Dict) String(v Value) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(v) < len(d.strs) {
		return d.strs[v]
	}
	return fmt.Sprintf("#%d", uint32(v))
}

// Len reports how many distinct strings have been interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strs)
}

// CompactInto builds a new dictionary holding only the strings whose IDs
// are marked in used (indexed by ID), assigning fresh dense IDs in the old
// insertion order, and returns it with the old→new ID remapping (indexed by
// old ID; entries for unused IDs are meaningless). The receiver is left
// intact — live snapshots that interned against it keep resolving.
// Engine.Compact is the caller: it rewrites the live epoch's columns
// through the remapping and publishes them with the new dictionary, so a
// long-lived server's string table stops growing monotonically.
func (d *Dict) CompactInto(used []bool) (*Dict, []Value) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nd := NewDict()
	remap := make([]Value, len(d.strs))
	for id, s := range d.strs {
		if id < len(used) && used[id] {
			nv := Value(len(nd.strs))
			nd.strs = append(nd.strs, s)
			nd.ids[s] = nv
			remap[id] = nv
		}
	}
	return nd, remap
}

// V interns s in the default dictionary. It is the constructor for Value:
// relation code uses V("x") where it once used Value("x"). V and
// Value.String are a single-engine convenience: every Engine owns a private
// Dict (see Engine.Dict), and values interned here do not resolve there.
func V(s string) Value { return defaultDict.Intern(s) }

// String resolves the value through the default dictionary.
func (v Value) String() string { return defaultDict.String(v) }

// Less orders values by their interned strings, giving the lexicographic
// order the seed's string-valued relations had. ID order is insertion order
// and means nothing to a reader.
func (v Value) Less(w Value) bool { return v.String() < w.String() }
