package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func tupleOf(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, s := range vals {
		t[i] = V(s)
	}
	return t
}

func TestExtendAppendsWithoutMutatingBase(t *testing.T) {
	base := New("R", "A", "B")
	base.Add("a", "1")
	base.Add("b", "2")
	base.Freeze()

	next, err := base.Extend([]Tuple{tupleOf("c", "3"), tupleOf("d", "4")})
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() != 2 {
		t.Fatalf("base grew to %d rows", base.Size())
	}
	if next.Size() != 4 {
		t.Fatalf("successor has %d rows, want 4", next.Size())
	}
	if !next.Frozen() {
		t.Fatal("successor not frozen")
	}
	for _, want := range []Tuple{tupleOf("a", "1"), tupleOf("c", "3"), tupleOf("d", "4")} {
		if !next.Has(want) {
			t.Fatalf("successor missing %v", want.Strings())
		}
	}
	if next.Has(tupleOf("e", "5")) {
		t.Fatal("successor has a tuple nobody inserted")
	}
}

func TestExtendTwiceFromSameBaseDoesNotFork(t *testing.T) {
	base := New("R", "A")
	base.Add("a")
	base.Freeze()

	n1, err := base.Extend([]Tuple{tupleOf("b")})
	if err != nil {
		t.Fatal(err)
	}
	// The second Extend of the SAME base must reallocate: if it appended
	// into the shared spare capacity it would overwrite n1's rows.
	n2, err := base.Extend([]Tuple{tupleOf("c")})
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Has(tupleOf("b")) || n1.Has(tupleOf("c")) {
		t.Fatalf("first successor corrupted: %v", n1)
	}
	if !n2.Has(tupleOf("c")) || n2.Has(tupleOf("b")) {
		t.Fatalf("second successor corrupted: %v", n2)
	}
}

func TestExtendArityMismatch(t *testing.T) {
	base := New("R", "A", "B")
	if _, err := base.Extend([]Tuple{tupleOf("a")}); err == nil {
		t.Fatal("arity-mismatched extend succeeded")
	}
}

func TestFrozenInsertRejected(t *testing.T) {
	r := New("R", "A")
	r.Add("a")
	r.Freeze()
	if _, err := r.Insert(tupleOf("b")); err == nil {
		t.Fatal("insert into frozen relation succeeded")
	}
	if r.Size() != 1 {
		t.Fatalf("frozen relation grew to %d rows", r.Size())
	}
}

// TestExtendMemosMatchRebuild pins that a successor's memos, built on
// first read, equal a from-scratch twin's, and that building them leaves
// the base index's posting lists alone.
func TestExtendMemosMatchRebuild(t *testing.T) {
	base := New("R", "A", "B")
	for i := 0; i < 40; i++ {
		base.Add(fmt.Sprintf("x%d", i%7), fmt.Sprintf("y%d", i))
	}
	base.Freeze()
	// Warm the base's memos before the extension.
	baseIx := base.Index(0)
	_ = base.DistinctCount(0)
	_ = base.DistinctCount(1)

	delta := []Tuple{tupleOf("x1", "fresh1"), tupleOf("z", "fresh2")}
	next, err := base.Extend(delta)
	if err != nil {
		t.Fatal(err)
	}

	// A from-scratch twin of next: same rows, cold memos.
	fresh := New("R", "A", "B")
	next.Each(func(tp Tuple) bool {
		fresh.MustInsert(tp.Clone()...)
		return true
	})
	fresh.Freeze()
	for c := 0; c < 2; c++ {
		if got, want := next.DistinctCount(c), fresh.DistinctCount(c); got != want {
			t.Fatalf("column %d: successor distinct %d, rebuilt %d", c, got, want)
		}
	}
	nextIx := next.Index(0)
	fresh.Each(func(tp Tuple) bool {
		if len(nextIx.Rows(probeKey(tp[0]))) == 0 {
			t.Fatalf("successor index misses key %v", tp.Strings())
		}
		return true
	})
	// Building the successor's index must not have grown the BASE index's
	// posting lists: epoch readers of the base are still probing them.
	for _, row := range baseIx.Rows(probeKey(V("x1"))) {
		if int(row) >= base.Size() {
			t.Fatalf("base index now lists row %d past base size %d", row, base.Size())
		}
	}
}

// TestExtendLeavesBaseMemosAlone pins the memo contract across versions: an
// Extend successor starts with no memos and builds its index, statistics
// and ranges on first read, equal to those of a freshly built twin, while
// the base's warm memos keep answering for the base's rows alone.
func TestExtendLeavesBaseMemosAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randRel(rng, "R", []string{"a", "b", "c"}, 400, 5)
	base.Freeze()
	cols := []int{2, 1}
	baseIx := base.Index(cols...)
	before := scanPostings(base, cols)
	baseDistinct := []int{base.DistinctCount(0), base.DistinctCount(1), base.DistinctCount(2)}
	baseRanges := []Range{base.ValueRange(0), base.ValueRange(1), base.ValueRange(2)}

	// A delta whose rows repeat existing keys and add new ones; column 0
	// holds fresh values, so the rows are new and widen its range.
	var delta []Tuple
	for i := 0; i < 60; i++ {
		tp := base.Row(rng.Intn(base.Size()))
		tp[0] = V(fmt.Sprintf("fresh%d", i))
		if i%3 == 0 {
			tp[cols[0]] = V(fmt.Sprintf("newkey%d", i))
		}
		delta = append(delta, tp)
	}
	next, err := base.Extend(delta)
	if err != nil {
		t.Fatal(err)
	}
	next.EachMemo(func(key string, _ any, _ bool) bool {
		t.Fatalf("successor starts with memo %q: memos are built on first read", key)
		return true
	})

	// A from-scratch twin of next: same rows in the same order.
	fresh := New("R", "a", "b", "c")
	next.Each(func(tp Tuple) bool {
		fresh.MustInsert(tp.Clone()...)
		return true
	})
	fresh.Freeze()
	for c := range baseDistinct {
		if got, want := next.DistinctCount(c), fresh.DistinctCount(c); got != want {
			t.Fatalf("column %d: successor distinct %d, twin %d", c, got, want)
		}
		if got, want := next.ValueRange(c), fresh.ValueRange(c); got != want {
			t.Fatalf("column %d: successor range %v, twin %v", c, got, want)
		}
	}
	nextIx, freshIx := next.Index(cols...), fresh.Index(cols...)
	checkIndex(t, "successor", nextIx, next)
	if nextIx.Len() != freshIx.Len() {
		t.Fatalf("successor index has %d keys, twin %d", nextIx.Len(), freshIx.Len())
	}
	for k := int32(0); k < int32(nextIx.Len()); k++ {
		if !slices.Equal(nextIx.postings(k), freshIx.postings(k)) {
			t.Fatalf("key %v: successor postings %v, twin %v", nextIx.keys.key(k), nextIx.postings(k), freshIx.postings(k))
		}
	}

	// The base's memos are the ones warmed before Extend, unchanged:
	// readers of the old epoch are still probing them.
	if base.Index(cols...) != baseIx {
		t.Fatal("base index was rebuilt after Extend")
	}
	checkIndex(t, "base after extend", baseIx, base)
	for k := int32(0); k < int32(baseIx.Len()); k++ {
		key := baseIx.keys.key(k)
		if got := baseIx.postings(k); !slices.Equal(got, before[Tuple(key).Key()]) {
			t.Fatalf("base postings of %v changed to %v", key, got)
		}
	}
	for c := range baseDistinct {
		if got := base.DistinctCount(c); got != baseDistinct[c] {
			t.Fatalf("base column %d: distinct %d after extend, %d before", c, got, baseDistinct[c])
		}
		if got := base.ValueRange(c); got != baseRanges[c] {
			t.Fatalf("base column %d: range %v after extend, %v before", c, got, baseRanges[c])
		}
	}
}

// TestRowTableTracksRows checks the commit writer's dedup of a version
// chain: a relation's row table gives row i the id i, and a newly inserted
// tuple the id of the next row, without touching the relation.
func TestRowTableTracksRows(t *testing.T) {
	r := New("R", "A", "B")
	r.Add("a", "1")
	r.Add("b", "2")
	m := r.RowTable()
	if m.Len() != 2 {
		t.Fatalf("row table has %d keys, want 2", m.Len())
	}
	if row := m.FindTuple(tupleOf("b", "2")); row != 1 {
		t.Fatalf("FindTuple(b,2) = %d, want 1", row)
	}
	if row, added := m.InsertTuple(tupleOf("c", "3")); !added || row != 2 {
		t.Fatalf("InsertTuple(c,3) = %d,%v, want 2,true", row, added)
	}
	if row, added := m.InsertTuple(tupleOf("a", "1")); added || row != 0 {
		t.Fatalf("InsertTuple(a,1) = %d,%v, want 0,false", row, added)
	}
	if m.FindTuple(tupleOf("c", "3")) != 2 {
		t.Fatal("inserted tuple not visible")
	}
	if r.Has(tupleOf("c", "3")) {
		t.Fatal("the writer's table leaked into the relation")
	}
}

func TestEachMemoReportsStaleEntries(t *testing.T) {
	r := New("R", "A")
	r.Add("a")
	r.Index(0) // memoized at size 1
	r.Add("b") // invalidates it
	sawStale := false
	r.EachMemo(func(key string, v any, valid bool) bool {
		if _, ok := v.(*Index); ok && !valid {
			sawStale = true
		}
		return true
	})
	if !sawStale {
		t.Fatal("EachMemo hid the stale index entry")
	}
}

func TestDictPerRelation(t *testing.T) {
	d := NewDict()
	r := NewIn("R", d, "A")
	before := DefaultDict().Len()
	r.Add("only-in-private-dict-xyzzy")
	if DefaultDict().Len() != before {
		t.Fatal("Add interned into the default dictionary despite a private one")
	}
	if d.Len() != 1 {
		t.Fatalf("private dict has %d entries, want 1", d.Len())
	}
	if got := r.String(); got == "" {
		t.Fatal("String failed on private-dict relation")
	}
}

func TestCompactInto(t *testing.T) {
	d := NewDict()
	a, b, c := d.Intern("keep-a"), d.Intern("drop-b"), d.Intern("keep-c")
	used := make([]bool, d.Len())
	used[a], used[c] = true, true
	nd, remap := d.CompactInto(used)
	if nd.Len() != 2 {
		t.Fatalf("compacted dict has %d entries, want 2", nd.Len())
	}
	if got := nd.String(remap[a]); got != "keep-a" {
		t.Fatalf("remapped a resolves to %q", got)
	}
	if got := nd.String(remap[c]); got != "keep-c" {
		t.Fatalf("remapped c resolves to %q", got)
	}
	if _, ok := nd.Lookup("drop-b"); ok {
		t.Fatal("dropped string survived compaction")
	}
	// The old dictionary still resolves everything (pinned readers).
	if d.String(b) != "drop-b" {
		t.Fatal("source dictionary mutated by compaction")
	}
}
