package relation

import (
	"fmt"
	"sync"
	"testing"
)

// --- Dict ---

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct strings interned to the same ID")
	}
	if d.Intern("alpha") != a {
		t.Fatal("re-interning is not idempotent")
	}
	if d.String(a) != "alpha" || d.String(b) != "beta" {
		t.Fatalf("round trip failed: %q %q", d.String(a), d.String(b))
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup invented an ID")
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %v %v", id, ok)
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	const workers, n = 8, 200
	ids := make([][]Value, workers)
	for w := 0; w < workers; w++ {
		ids[w] = make([]Value, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ids[w][i] = d.Intern(fmt.Sprintf("s%d", i))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < n; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d interned s%d to %d, worker 0 to %d", w, i, ids[w][i], ids[0][i])
			}
		}
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
}

func TestValueStringDefaultDict(t *testing.T) {
	v := V("hello-interning")
	if v.String() != "hello-interning" {
		t.Fatalf("String = %q", v.String())
	}
}

// --- Tuples() aliasing (the seed's hazard: callers could mutate the slice
// returned by Tuples() behind the row table) ---

func TestTuplesCopyOnRead(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "2")
	r.Add("3", "4")
	ts := r.Tuples()
	// Mutate everything the caller received.
	for i := range ts {
		for j := range ts[i] {
			ts[i][j] = V("clobbered")
		}
	}
	// The relation must be unaffected: dedup, membership and stored values.
	if !r.Has(Tuple{V("1"), V("2")}) || !r.Has(Tuple{V("3"), V("4")}) {
		t.Fatal("mutating Tuples() output corrupted the relation")
	}
	if r.Has(Tuple{V("clobbered"), V("clobbered")}) {
		t.Fatal("mutation leaked into storage")
	}
	if ok, _ := r.Insert(Tuple{V("1"), V("2")}); ok {
		t.Fatal("row table corrupted: duplicate accepted after caller mutation")
	}
	if got := r.Tuples(); got[0][0] != V("1") || got[1][1] != V("4") {
		t.Fatalf("stored values changed: %v", got)
	}
}

func TestEachBufferIsReused(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	r.Add("2")
	var first Tuple
	count := 0
	r.Each(func(t Tuple) bool {
		if count == 0 {
			first = t // retained against the contract, to observe reuse
		}
		count++
		return true
	})
	if count != 2 {
		t.Fatalf("Each visited %d tuples", count)
	}
	// The buffer is reused, so the retained slice now holds the last row —
	// this documents why the contract forbids retaining it.
	if first[0] != V("2") {
		t.Fatalf("expected reused buffer to show last row, got %v", first[0])
	}
}

// --- Copy-on-write renames and clones ---

func TestRenameIsCopyOnWrite(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "2")
	s, err := r.Rename("S", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// Insert into the rename: the original must not see the new tuple.
	s.Add("9", "9")
	if r.Size() != 1 || s.Size() != 2 {
		t.Fatalf("sizes after insert into rename: r=%d s=%d", r.Size(), s.Size())
	}
	if r.Has(Tuple{V("9"), V("9")}) {
		t.Fatal("insert into rename leaked into original")
	}
	// Insert into the original: the rename must not see it either.
	r.Add("7", "7")
	if s.Has(Tuple{V("7"), V("7")}) {
		t.Fatal("insert into original leaked into rename")
	}
}

func TestCloneDivergence(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	c := r.Clone("C")
	r.Add("2")
	c.Add("3")
	if r.Size() != 2 || c.Size() != 2 {
		t.Fatalf("sizes: r=%d c=%d", r.Size(), c.Size())
	}
	if r.Has(Tuple{V("3")}) || c.Has(Tuple{V("2")}) {
		t.Fatal("clone and original share mutations")
	}
	// Dedup still correct on both after divergence.
	if ok, _ := r.Insert(Tuple{V("2")}); ok {
		t.Fatal("r dedup broken")
	}
	if ok, _ := c.Insert(Tuple{V("3")}); ok {
		t.Fatal("c dedup broken")
	}
}

// --- Hash indexes ---

func TestIndexLookup(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("x", "1")
	r.Add("x", "2")
	r.Add("y", "1")
	ix := r.Index(0)
	if ix.Len() != 2 {
		t.Fatalf("index keys = %d, want 2", ix.Len())
	}
	if got := len(ix.Rows(probeKey(V("x")))); got != 2 {
		t.Fatalf("rows under x = %d, want 2", got)
	}
	if ix.Has(probeKey(V("z"))) {
		t.Fatal("index matched absent key")
	}
}

func TestIndexMemoizedAndInvalidated(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("x", "1")
	ix1 := r.Index(0)
	if ix2 := r.Index(0); ix2 != ix1 {
		t.Fatal("index not memoized across calls")
	}
	r.Add("y", "2")
	ix3 := r.Index(0)
	if ix3 == ix1 {
		t.Fatal("index not rebuilt after insert")
	}
	if !ix3.Has(probeKey(V("y"))) {
		t.Fatal("rebuilt index missing new row")
	}
}

func TestIndexSharedWithRename(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("x", "1")
	r.Add("y", "2")
	s, err := r.Rename("S", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	if r.Index(1) != s.Index(1) {
		t.Fatal("rename does not share the parent's memoized index")
	}
	// After divergence the rename builds its own.
	s.Add("z", "3")
	if r.Index(1) == s.Index(1) {
		t.Fatal("diverged rename still shares the parent's index")
	}
}

// --- Semijoin ---

func TestSemijoin(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	r.Add("2", "y")
	r.Add("3", "z")
	s := New("S", "b", "c")
	s.Add("x", "q")
	s.Add("y", "q")
	rCols, sCols := SharedCols(r, s)
	out, err := SemijoinOn(r, s, rCols, sCols)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 || out.Arity() != 2 {
		t.Fatalf("semijoin = %s", out)
	}
	if !out.Has(Tuple{V("1"), V("x")}) || !out.Has(Tuple{V("2"), V("y")}) || out.Has(Tuple{V("3"), V("z")}) {
		t.Fatalf("semijoin contents wrong: %s", out)
	}
}

func TestSemijoinNoSharedAttrs(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	s := New("S", "b")
	out, err := SemijoinOn(r, s, nil, nil) // s empty: nothing joins
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 {
		t.Fatalf("semijoin with empty s = %d tuples", out.Size())
	}
	s.Add("x")
	out, err = SemijoinOn(r, s, nil, nil) // s non-empty: everything joins
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("semijoin with non-empty s = %d tuples", out.Size())
	}
}

// TestConcurrentReaders exercises the lazily built structures (row table,
// stats, indexes, memos served to a view) under concurrent readers — run
// with -race.
func TestConcurrentReaders(t *testing.T) {
	r := New("R", "a", "b")
	for i := 0; i < 500; i++ {
		r.Add(fmt.Sprintf("u%d", i%50), fmt.Sprintf("v%d", i))
	}
	all := make([]int32, r.Size())
	for i := range all {
		all[i] = int32(i)
	}
	lazy := r.Gather("L", all) // no row table until a reader needs one
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 4 {
			case 0:
				_ = r.Index(0)
			case 1:
				_ = r.DistinctCount(1)
			case 2:
				_ = lazy.Has(Tuple{V("u1"), V("v1")})
			case 3:
				s, err := r.Rename("S", "x", "y")
				if err != nil {
					t.Error(err)
					return
				}
				_ = s.Index(1)
			}
		}(w)
	}
	wg.Wait()
}
