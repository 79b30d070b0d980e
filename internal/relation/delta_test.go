package relation

import (
	"fmt"
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

func TestExtendMemosMatchRebuild(t *testing.T) {
	base := New("R", "A", "B")
	for i := 0; i < 40; i++ {
		base.Add(fmt.Sprintf("x%d", i%7), fmt.Sprintf("y%d", i))
	}
	base.Freeze()
	// Warm the memos the extension derives from.
	baseIx := base.Index(0)
	_ = base.DistinctCount(0)
	_ = base.DistinctCount(1)

	delta := []Tuple{tupleOf("x1", "fresh1"), tupleOf("z", "fresh2")}
	next, err := base.Extend(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.ExtendMemos(next); got != 2 {
		t.Fatalf("extended %d memos, want 2 (stats + one index)", got)
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
			t.Fatalf("column %d: extended distinct %d, rebuilt %d", c, got, want)
		}
	}
	freshIx := next.Index(0) // served from the installed memo
	fresh.Each(func(tp Tuple) bool {
		if len(freshIx.Rows(probeKey(tp[0]))) == 0 {
			t.Fatalf("extended index misses key %v", tp.Strings())
		}
		return true
	})
	// The extension must not have grown the BASE index's posting lists:
	// epoch readers of the base are still probing them.
	baseRows := baseIx.Rows(probeKey(V("x1")))
	for _, row := range baseRows {
		if int(row) >= base.Size() {
			t.Fatalf("base index now lists row %d past base size %d", row, base.Size())
		}
	}
}

func TestNewDedupTracksRows(t *testing.T) {
	r := New("R", "A", "B")
	r.Add("a", "1")
	r.Add("b", "2")
	m := r.NewDedup()
	if len(m) != 2 {
		t.Fatalf("dedup has %d entries, want 2", len(m))
	}
	if row, ok := m.Row(tupleOf("b", "2")); !ok || row != 1 {
		t.Fatalf("Row(b,2) = %d,%v want 1,true", row, ok)
	}
	m.Put(tupleOf("c", "3"), 2)
	if _, ok := m.Row(tupleOf("c", "3")); !ok {
		t.Fatal("Put not visible")
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
		t.Fatal("EachMemo hid the stale index entry — the sweep would leak it")
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
