package relation

// Tests and benchmarks for the key table and the index built on it.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// probeKey presents values as the probe key (cols, pos, row) of Index.Rows
// and Index.Has: one-row columns, read in order.
func probeKey(vals ...Value) ([][]Value, []int, int) {
	cols := make([][]Value, len(vals))
	pos := make([]int, len(vals))
	for i := range vals {
		cols[i] = vals[i : i+1]
		pos[i] = i
	}
	return cols, pos, 0
}

// randomValue draws from a small universe that includes the extremes, so
// keys repeat and 0 and MaxUint32 appear in every position.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	return Value(rng.Intn(6))
}

func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for width := 1; width <= 6; width++ {
		// Rows of width+1 columns, keyed on a shuffled choice of width of
		// them, so the key's positions are neither all nor in order.
		const rows = 3000
		cols := make([][]Value, width+1)
		for c := range cols {
			cols[c] = make([]Value, rows)
			for i := range cols[c] {
				cols[c][i] = randomValue(rng)
			}
		}
		pos := rng.Perm(width + 1)[:width]
		tab := NewKeyTable(width, 0) // the smallest table: every insert may grow it
		want := make(map[string]int32)
		var order []Tuple
		for i := 0; i < rows; i++ {
			key := make(Tuple, width)
			for k, p := range pos {
				key[k] = cols[p][i]
			}
			id, added := tab.Insert(cols, pos, i)
			wid, seen := want[key.Key()]
			if !seen {
				wid = int32(len(order))
				want[key.Key()] = wid
				order = append(order, key)
			}
			if added == seen || id != wid {
				t.Fatalf("width %d row %d: Insert = (%d, %v), want (%d, %v)", width, i, id, added, wid, !seen)
			}
		}
		if tab.Len() != len(order) {
			t.Fatalf("width %d: Len = %d, want %d", width, tab.Len(), len(order))
		}
		for id, key := range order {
			if got := tab.key(int32(id)); !slices.Equal(got, key) {
				t.Fatalf("width %d: key(%d) = %v, want %v (ids dense, in insertion order)", width, id, got, key)
			}
		}
		// Find, on present keys and on keys drawn from a wider universe.
		for i := 0; i < 2000; i++ {
			key := make(Tuple, width)
			for k := range key {
				key[k] = randomValue(rng)
				if rng.Intn(4) == 0 {
					key[k] = Value(100 + rng.Intn(4))
				}
			}
			wid, ok := want[key.Key()]
			if !ok {
				wid = -1
			}
			if got := tab.Find(probeKey(key...)); got != wid {
				t.Fatalf("width %d: Find(%v) = %d, want %d", width, key, got, wid)
			}
		}
	}
}

// scanPostings is the brute-force reference of an index: for every
// distinct key of r in cols, the ascending rows holding it.
func scanPostings(r *Relation, cols []int) map[string][]int32 {
	out := make(map[string][]int32)
	for i := 0; i < r.Size(); i++ {
		key := make(Tuple, len(cols))
		for k, c := range cols {
			key[k] = r.At(i, c)
		}
		out[key.Key()] = append(out[key.Key()], int32(i))
	}
	return out
}

// checkIndex compares ix with the scan of r, key by key, and probes one
// absent key.
func checkIndex(t *testing.T, what string, ix *Index, r *Relation) {
	t.Helper()
	want := scanPostings(r, ix.Cols())
	if ix.Len() != len(want) {
		t.Fatalf("%s: %d keys, the scan found %d", what, ix.Len(), len(want))
	}
	for i := 0; i < r.Size(); i++ {
		key := make(Tuple, len(ix.Cols()))
		for k, c := range ix.Cols() {
			key[k] = r.At(i, c)
		}
		if got := ix.Rows(probeKey(key...)); !slices.Equal(got, want[key.Key()]) {
			t.Fatalf("%s: key %v lists rows %v, the scan %v", what, key, got, want[key.Key()])
		}
	}
	absent := make(Tuple, len(ix.Cols()))
	for k := range absent {
		absent[k] = V("absent")
	}
	if ix.Has(probeKey(absent...)) || ix.Rows(probeKey(absent...)) != nil {
		t.Fatalf("%s: absent key matched", what)
	}
}

func TestIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for width := 1; width <= 3; width++ {
		attrs := []string{"a", "b", "c", "d"}[:width+1]
		base := randRel(rng, "R", attrs, 400, 5)
		base.Freeze()
		// Key columns in reverse, so key order differs from column order.
		cols := make([]int, width)
		for k := range cols {
			cols[k] = width - k
		}
		checkIndex(t, fmt.Sprintf("width %d", width), base.Index(cols...), base)
	}
}

// hashIndex builds the hash index over column c of r, whatever its range:
// the reference a direct-addressed index must answer like.
func hashIndex(r *Relation, c int) *Index {
	ix := &Index{cols: []int{c}, keys: NewKeyTable(1, r.Size())}
	ix.addRows(r)
	return ix
}

// fdByScan reports whether column from determines column to in r, by a
// map over every row.
func fdByScan(r *Relation, from, to int) bool {
	seen := make(map[Value]Value)
	for i := 0; i < r.Size(); i++ {
		v, w := r.At(i, from), r.At(i, to)
		if u, ok := seen[v]; ok && u != w {
			return false
		}
		seen[v] = w
	}
	return true
}

// TestDirectIndexMatchesHashIndex checks the rule that picks a
// direct-addressed index (a one-column range at most 4·rows + 64 wide)
// and that such an index answers Rows, Has, Len and CheckFD as the hash
// index does: on random columns, an empty relation, one value, a range at
// the rule and one just past it, probed on every value of the range, two
// values on either side of it, and the extremes of Value.
func TestDirectIndexMatchesHashIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random := func(n int, lo, width Value) []Value {
		col := make([]Value, n)
		for i := range col {
			col[i] = lo + Value(rng.Intn(int(width)))
		}
		return col
	}
	// spanning returns n values whose range is exactly width wide.
	spanning := func(n int, lo Value, width int) []Value {
		col := random(n, lo, Value(width))
		col[0], col[n-1] = lo, lo+Value(width-1)
		return col
	}
	cases := []struct {
		name   string
		col    []Value
		direct bool
	}{
		{"empty", nil, true},
		{"one value", []Value{7}, true},
		{"random narrow", random(500, 100, 300), true},
		{"random from zero", random(500, 0, 40), true},
		{"at the rule", spanning(100, 1000, 4*100+64), true},
		{"just past the rule", spanning(100, 1000, 4*100+65), false},
	}
	for _, c := range cases {
		n := len(c.col)
		cols := [][]Value{c.col, make([]Value, n), make([]Value, n)}
		for i, v := range c.col {
			cols[1][i] = Value(i) // distinct rows
			cols[2][i] = v % 7    // a function of column 0
		}
		r := NewFromColumns("R", []string{"a", "b", "c"}, cols)
		ix, ref := r.Index(0), hashIndex(r, 0)
		if direct := ix.keys == nil; direct != c.direct {
			t.Fatalf("%s: direct-addressed %v, want %v", c.name, direct, c.direct)
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("%s: %d keys, the hash index %d", c.name, ix.Len(), ref.Len())
		}
		g := r.ValueRange(0)
		probes := []Value{0, 1, math.MaxUint32 - 1, math.MaxUint32}
		for v := g.Lo - 2; v != g.Hi+3; v++ {
			probes = append(probes, v)
		}
		for _, v := range probes {
			if got, want := ix.Rows(probeKey(v)), ref.Rows(probeKey(v)); !slices.Equal(got, want) {
				t.Fatalf("%s: value %d lists rows %v, the hash index %v", c.name, v, got, want)
			}
			if got, want := ix.Has(probeKey(v)), ref.Has(probeKey(v)); got != want {
				t.Fatalf("%s: Has(%d) = %v, the hash index %v", c.name, v, got, want)
			}
		}
		for _, fd := range [][2]int{{0, 2}, {0, 1}, {2, 0}} {
			if got, want := r.CheckFD([]int{fd[0]}, fd[1]), fdByScan(r, fd[0], fd[1]); got != want {
				t.Fatalf("%s: CheckFD(%d -> %d) = %v, the scan says %v", c.name, fd[0], fd[1], got, want)
			}
		}
	}
}

func TestIndexBuildAllocsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		cols := [][]Value{make([]Value, rows), make([]Value, rows)}
		for i := 0; i < rows; i++ {
			cols[0][i] = Value(i / 2) // every key on two rows
			cols[1][i] = Value(i)
		}
		return testing.AllocsPerRun(20, func() {
			NewFromColumns("R", []string{"a", "b"}, cols).Index(0)
		})
	}
	small, large := allocs(1<<10), allocs(1<<16)
	if large > small {
		t.Fatalf("index build: %.2f allocs over 64 Ki rows, %.2f over 1 Ki — allocations grow with the rows", large, small)
	}
}

// benchSink keeps the benchmark's probe results live.
var benchSink int

// BenchmarkIndex builds an index over 64 Ki rows, every key on two rows,
// and probes it with 64 Ki rows of which half match, at key widths 1, 2
// and 4. At width 1 the keys are consecutive, which makes the index
// direct-addressed, and again spread 16 apart, past the direct rule, which
// makes it a hash index over the same keys.
func BenchmarkIndex(b *testing.B) {
	const rows = 1 << 16
	for _, c := range []struct {
		name          string
		width, spread int
	}{{"width=1/direct", 1, 1}, {"width=1/hash", 1, 16}, {"width=2", 2, 1}, {"width=4", 4, 1}} {
		// The indexed relation has one unkeyed column more, which keeps
		// the two rows of each key distinct.
		width := c.width
		attrs := make([]string, width+1)
		build := make([][]Value, width+1)
		probe := make([][]Value, width)
		pos := make([]int, width)
		for k := range build {
			attrs[k] = fmt.Sprintf("c%d", k)
			build[k] = make([]Value, rows)
			for i := range build[k] {
				build[k][i] = Value(i/2*c.spread + k)
				if k == width {
					build[k][i] = Value(i)
				}
			}
		}
		for k := range probe {
			pos[k] = k
			probe[k] = make([]Value, rows)
			for i := range probe[k] {
				probe[k][i] = Value(i*c.spread + k)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ix := NewFromColumns("R", attrs, build).Index(pos...)
				n := 0
				for i := 0; i < rows; i++ {
					n += len(ix.Rows(probe, pos, i))
				}
				benchSink = n
			}
		})
	}
}
