package relation

import (
	"fmt"
	"testing"
)

// valuesRel builds a relation straight from raw Values, bypassing every
// dictionary: ranges must come from these values alone.
func valuesRel(name string, cols ...[]Value) *Relation {
	attrs := make([]string, len(cols))
	for c := range attrs {
		attrs[c] = fmt.Sprintf("c%d", c)
	}
	return NewFromColumns(name, attrs, cols)
}

func TestValueRangeScansTheData(t *testing.T) {
	r := valuesRel("R", []Value{7, 3, 9, 3}, []Value{1 << 30, 5, 5, 2})
	if got, want := r.ValueRange(0), (Range{Lo: 3, Hi: 9}); got != want {
		t.Fatalf("column 0: range %v, want %v", got, want)
	}
	if got, want := r.ValueRange(1), (Range{Lo: 2, Hi: 1 << 30}); got != want {
		t.Fatalf("column 1: range %v, want %v", got, want)
	}
	if got := r.ValueRange(1).Width(); got != 1<<30-1 {
		t.Fatalf("column 1: width %d, want %d", got, 1<<30-1)
	}
	for _, c := range []int{-1, 2} {
		if !r.ValueRange(c).Empty() {
			t.Fatalf("column %d of a binary relation has range %v, want empty", c, r.ValueRange(c))
		}
	}
	if e := New("E", "a"); !e.ValueRange(0).Empty() || e.ValueRange(0).Width() != 0 {
		t.Fatalf("empty relation has range %v", e.ValueRange(0))
	}
	// Growth invalidates the memo like every other size-keyed entry.
	g := New("G", "a")
	g.MustInsert(10)
	_ = g.ValueRange(0)
	g.MustInsert(4)
	if got, want := g.ValueRange(0), (Range{Lo: 4, Hi: 10}); got != want {
		t.Fatalf("after insert: range %v, want %v", got, want)
	}
}

func TestRangeAlgebra(t *testing.T) {
	a, b := Range{Lo: 2, Hi: 8}, Range{Lo: 5, Hi: 12}
	if got := a.Intersect(b); got != (Range{Lo: 5, Hi: 8}) {
		t.Fatalf("intersect %v", got)
	}
	if got := a.Intersect(Range{Lo: 9, Hi: 12}); !got.Empty() {
		t.Fatalf("disjoint intersect %v, want empty", got)
	}
}

// TestValueRangeDelegatesToParent pins that Clone and Rename views share
// their parent's memoized ranges: one scan per stored row set.
func TestValueRangeDelegatesToParent(t *testing.T) {
	base := valuesRel("R", []Value{4, 1, 6}, []Value{2, 2, 8})
	renamed, err := base.Rename("S", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	clone := base.Clone("")
	if got, want := renamed.ValueRange(1), (Range{Lo: 2, Hi: 8}); got != want {
		t.Fatalf("renamed view: range %v, want %v", got, want)
	}
	if _, ok := base.peekMemo("ranges"); !ok {
		t.Fatal("a Rename view's ValueRange was not memoized on its parent")
	}
	if _, ok := clone.peekMemo("ranges"); !ok {
		t.Fatal("a Clone view does not see its parent's memoized ranges")
	}
	if got, want := clone.ValueRange(0), (Range{Lo: 1, Hi: 6}); got != want {
		t.Fatalf("clone: range %v, want %v", got, want)
	}
	// A view that diverged by insertion stops delegating.
	clone.MustInsert(0, 9)
	if got, want := clone.ValueRange(0), (Range{Lo: 0, Hi: 6}); got != want {
		t.Fatalf("grown clone: range %v, want %v", got, want)
	}
	if got, want := base.ValueRange(0), (Range{Lo: 1, Hi: 6}); got != want {
		t.Fatalf("base after the clone grew: range %v, want %v", got, want)
	}
}

// TestExtendMemosWidenRanges pins that an epoch successor's ranges cover
// the delta's values, while the base's warm ranges keep its own rows'.
func TestExtendMemosWidenRanges(t *testing.T) {
	base := valuesRel("R", []Value{10, 20}, []Value{5, 6})
	base.Freeze()
	_ = base.ValueRange(0)
	next, err := base.Extend([]Tuple{{3, 6}, {15, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := next.peekMemo("ranges"); ok {
		t.Fatal("the successor starts with ranges: they are built on first read")
	}
	for c, want := range []Range{{Lo: 3, Hi: 20}, {Lo: 5, Hi: 40}} {
		if got := next.ValueRange(c); got != want {
			t.Fatalf("successor column %d: range %v, want %v", c, got, want)
		}
		fresh := valuesRel("F", next.Column(0), next.Column(1))
		if got := fresh.ValueRange(c); got != want {
			t.Fatalf("rescanned column %d: range %v, want %v", c, got, want)
		}
	}
	if got, want := base.ValueRange(0), (Range{Lo: 10, Hi: 20}); got != want {
		t.Fatalf("base after extension: range %v, want %v", got, want)
	}
}
