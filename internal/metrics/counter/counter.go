// Package counter declares counters: each layer names its counters once,
// as a Family, and counts into a Set of atomic cells. The package is a
// leaf (it imports only sync/atomic) so that every layer can count;
// internal/metrics registers Sets and does everything else with them. A
// counter has one name wherever it is read, "<family>_<counter>": the
// registry, /metrics and trace deltas all take it from here.
package counter

import "sync/atomic"

// Family declares one layer's counters: a name prefix and, in declaration
// order, each counter's full name ("<family>_<counter>") and meaning.
// Declare a family and its counters as package variables; every Set of
// the family then carries one cell per counter.
type Family struct {
	prefix string
	names  []string
	helps  []string
}

// ID indexes one counter of a Family.
type ID int

// NewFamily returns a family with no counters yet.
func NewFamily(name string) *Family { return &Family{prefix: name + "_"} }

// Counter declares the next counter of the family.
func (f *Family) Counter(name, help string) ID {
	f.names = append(f.names, f.prefix+name)
	f.helps = append(f.helps, help)
	return ID(len(f.names) - 1)
}

// NewSet returns a set of the family's counters, all zero.
func (f *Family) NewSet() *Set {
	return &Set{fam: f, cells: make([]atomic.Int64, len(f.names))}
}

// Set is one atomic cell per counter of a family. A Set may be shared by
// concurrent writers; Add and Load on a nil *Set are a no-op and zero, so
// code counts unconditionally.
type Set struct {
	fam   *Family
	cells []atomic.Int64
}

// Add adds n to counter c.
func (s *Set) Add(c ID, n int64) {
	if s != nil {
		s.cells[c].Add(n)
	}
}

// Load reads counter c.
func (s *Set) Load(c ID) int64 {
	if s == nil {
		return 0
	}
	return s.cells[c].Load()
}

// AddTo adds every counter of s into dst, a set of the same family (both
// nil-safe): how a private set is merged into a shared one.
func (s *Set) AddTo(dst *Set) {
	if s == nil || dst == nil {
		return
	}
	for i := range s.cells {
		dst.cells[i].Add(s.cells[i].Load())
	}
}

// Reset zeroes every counter of s.
func (s *Set) Reset() {
	for i := range s.cells {
		s.cells[i].Store(0)
	}
}

// Since returns a new set holding s minus before, counter by counter.
func (s *Set) Since(before *Set) *Set {
	d := s.fam.NewSet()
	for i := range d.cells {
		d.cells[i].Store(s.cells[i].Load() - before.cells[i].Load())
	}
	return d
}

// Clone returns a new set holding the current values of s.
func (s *Set) Clone() *Set {
	return s.Since(s.fam.NewSet())
}

// Each calls fn with every counter's name and value, in declaration order.
func (s *Set) Each(fn func(name string, v int64)) {
	for i, n := range s.fam.names {
		fn(n, s.cells[i].Load())
	}
}

// Cell is one counter of a set, as a registry sees it.
type Cell struct {
	Name, Help string
	V          *atomic.Int64
}

// Cells lists the set's counters in declaration order.
func (s *Set) Cells() []Cell {
	out := make([]Cell, len(s.cells))
	for i := range s.cells {
		out[i] = Cell{Name: s.fam.names[i], Help: s.fam.helps[i], V: &s.cells[i]}
	}
	return out
}
