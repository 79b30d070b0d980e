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
// and 4.
func BenchmarkIndex(b *testing.B) {
	const rows = 1 << 16
	for _, width := range []int{1, 2, 4} {
		// The indexed relation has one unkeyed column more, which keeps
		// the two rows of each key distinct.
		attrs := make([]string, width+1)
		build := make([][]Value, width+1)
		probe := make([][]Value, width)
		pos := make([]int, width)
		for c := range build {
			attrs[c] = fmt.Sprintf("c%d", c)
			build[c] = make([]Value, rows)
			for i := range build[c] {
				build[c][i] = Value(i/2 + c)
				if c == width {
					build[c][i] = Value(i)
				}
			}
		}
		for c := range probe {
			pos[c] = c
			probe[c] = make([]Value, rows)
			for i := range probe[c] {
				probe[c][i] = Value(i + c)
			}
		}
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
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
