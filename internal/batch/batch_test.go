package batch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cqbound/internal/batch"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
)

// testSizes covers the degenerate one-row batch, a small odd size that
// forces partial-batch holds inside operators, and the default.
var testSizes = []int{1, 7, 1024}

func randomRel(rng *rand.Rand, name string, attrs []string, n, universe int) *relation.Relation {
	r := relation.New(name, attrs...)
	for i := 0; i < n; i++ {
		vals := make([]string, len(attrs))
		for j := range vals {
			vals[j] = fmt.Sprintf("u%d", rng.Intn(universe))
		}
		r.Add(vals...)
	}
	return r
}

func mustMaterialize(t *testing.T, it batch.Iterator, name string) *relation.Relation {
	t.Helper()
	out, err := batch.Materialize(context.Background(), it, name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRel(rng, "R", []string{"a", "b", "c"}, 2500, 60)
	for _, size := range testSizes {
		got := mustMaterialize(t, batch.Scan(r, size, nil), "out")
		if !relation.Equal(got, r) {
			t.Fatalf("size %d: scan round trip lost rows: %d vs %d", size, got.Size(), r.Size())
		}
		// Ranges laid end to end, one of them empty, read r row for row.
		cuts := []int{0, 900, 900, 1700, r.Size()}
		its := make([]batch.Iterator, len(cuts)-1)
		for k := range its {
			its[k] = batch.ScanRange(r, cuts[k], cuts[k+1], size, nil)
		}
		ranged, offs, err := batch.MaterializeParts(context.Background(), its, "out", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(offs, cuts) {
			t.Fatalf("size %d: ranges %v sank at offsets %v", size, cuts, offs)
		}
		for c := range r.Attrs {
			if !slices.Equal(ranged.Column(c), r.Column(c)) {
				t.Fatalf("size %d: column %d of the ranges laid end to end differs from the relation's", size, c)
			}
		}
	}
	if got := mustMaterialize(t, batch.Scan(relation.New("E", "a"), 8, nil), "out"); got.Size() != 0 {
		t.Fatalf("empty scan produced %d rows", got.Size())
	}
}

func TestJoinProbeMatchesNaturalJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := randomRel(rng, "L", []string{"a", "b"}, 400, 30)
	r := randomRel(rng, "R", []string{"b", "c"}, 300, 30)
	want, err := relation.NaturalJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	lCols, rCols := relation.SharedColsNames(l.Attrs, r.Attrs)
	pairs := make([][2]int, len(lCols))
	for i := range lCols {
		pairs[i] = [2]int{lCols[i], rCols[i]}
	}
	attrs, keep := relation.NaturalJoinSchema(l.Attrs, r.Attrs, rCols)
	for _, size := range testSizes {
		it := batch.JoinProbe(batch.Scan(l, size, nil), r, pairs, size, nil, keep...)
		if !slices.Equal(it.Attrs(), attrs) {
			t.Fatalf("probe attrs %v, natural join schema %v", it.Attrs(), attrs)
		}
		got := mustMaterialize(t, it, "out")
		if !relation.Equal(got, want) {
			t.Fatalf("size %d: streamed join %d rows, natural join %d", size, got.Size(), want.Size())
		}
	}
}

// TestJoinProbeResumesAcrossBatches compares the probe with
// relation.NaturalJoin where its output batches cut across its inputs: a
// posting list longer than the output batch, so a batch ends inside one
// left row's matches; left batches shorter than the output batch, so an
// output batch gathers from several; a two-column key whose right side
// keeps no column; a cross product; and an empty right side. Left batches
// of 1, 3 and the output size are tried at every output size.
func TestJoinProbeResumesAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hot := relation.New("R", "b", "c")
	for i := 0; i < 1500; i++ {
		hot.Add("k0", fmt.Sprintf("c%d", i))
	}
	for i := 0; i < 40; i++ {
		hot.Add(fmt.Sprintf("k%d", 1+i%3), fmt.Sprintf("c%d", i))
	}
	keys := relation.New("L", "a", "b")
	for i := 0; i < 12; i++ {
		keys.Add(fmt.Sprintf("a%d", i), fmt.Sprintf("k%d", i%5))
	}
	cases := []struct {
		name string
		l, r *relation.Relation
	}{
		{"fan-out past the batch", keys, hot},
		{"sparse matches", randomRel(rng, "L", []string{"a", "b"}, 600, 40), randomRel(rng, "R", []string{"b", "c"}, 300, 40)},
		{"two-column key", randomRel(rng, "L", []string{"a", "b", "c"}, 500, 6), randomRel(rng, "R", []string{"c", "a"}, 30, 6)},
		{"cross product", randomRel(rng, "L", []string{"a"}, 40, 50), randomRel(rng, "R", []string{"b", "c"}, 70, 50)},
		{"empty right", randomRel(rng, "L", []string{"a", "b"}, 40, 10), relation.New("R", "b", "c")},
	}
	for _, tc := range cases {
		want, err := relation.NaturalJoin(tc.l, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		lCols, rCols := relation.SharedColsNames(tc.l.Attrs, tc.r.Attrs)
		pairs := make([][2]int, len(lCols))
		for i := range lCols {
			pairs[i] = [2]int{lCols[i], rCols[i]}
		}
		_, keep := relation.NaturalJoinSchema(tc.l.Attrs, tc.r.Attrs, rCols)
		for _, size := range testSizes {
			for _, lsize := range []int{1, 3, size} {
				got := mustMaterialize(t, batch.JoinProbe(batch.Scan(tc.l, lsize, nil), tc.r, pairs, size, nil, keep...), "out")
				if got.Size() != want.Size() || !relation.Equal(got, want) {
					t.Fatalf("%s, size %d, left batches of %d: %d rows, natural join %d", tc.name, size, lsize, got.Size(), want.Size())
				}
			}
		}
	}
}

func TestJoinProbeCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := randomRel(rng, "L", []string{"a"}, 40, 50)
	r := randomRel(rng, "R", []string{"b"}, 30, 50)
	for _, size := range testSizes {
		got := mustMaterialize(t, batch.JoinProbe(batch.Scan(l, size, nil), r, nil, size, nil), "out")
		if got.Size() != l.Size()*r.Size() {
			t.Fatalf("size %d: cross product %d rows, want %d", size, got.Size(), l.Size()*r.Size())
		}
	}
}

// TestJoinProbeCrossProductAllocsIndependentOfLeft pins a cross product's
// probe state as built once per pipeline: draining 1 000 × 50 and 4 000 × 50
// must allocate equally often, where a match list built per left row would
// add an allocation for every one of them.
func TestJoinProbeCrossProductAllocsIndependentOfLeft(t *testing.T) {
	seq := func(name string, n int) *relation.Relation {
		r := relation.New(name, name)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("%s%d", name, i))
		}
		return r
	}
	right := seq("r", 50)
	allocs := func(leftRows int) float64 {
		left := seq("l", leftRows)
		return testing.AllocsPerRun(5, func() {
			it := batch.JoinProbe(batch.Scan(left, 0, nil), right, nil, 0, nil)
			for {
				b, err := it.Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					return
				}
			}
		})
	}
	if small, large := allocs(1000), allocs(4000); small != large {
		t.Fatalf("cross product allocates %v times at 1 000 left rows and %v at 4 000", small, large)
	}
}

func TestJoinProbeEmptyRightNeverPullsLeft(t *testing.T) {
	poison := &countingIter{src: batch.Scan(randomRel(rand.New(rand.NewSource(4)), "L", []string{"a"}, 10, 5), 4, nil)}
	it := batch.JoinProbe(poison, relation.New("E", "e"), [][2]int{{0, 0}}, 4, nil)
	if got := mustMaterialize(t, it, "out"); got.Size() != 0 {
		t.Fatalf("join with empty right produced %d rows", got.Size())
	}
	if poison.calls.Load() != 0 {
		t.Fatalf("empty right still pulled the left %d times", poison.calls.Load())
	}
}

func TestSemijoinMatchesSemijoinOn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomRel(rng, "L", []string{"a", "b"}, 500, 25)
	r := randomRel(rng, "R", []string{"b", "c"}, 200, 25)
	lCols, rCols := relation.SharedColsNames(l.Attrs, r.Attrs)
	want, err := relation.SemijoinOn(l, r, lCols, rCols)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range testSizes {
		got := mustMaterialize(t, batch.Semijoin(batch.Scan(l, size, nil), r, lCols, rCols, nil), "out")
		if !relation.Equal(got, want) {
			t.Fatalf("size %d: streamed semijoin %d rows, SemijoinOn %d", size, got.Size(), want.Size())
		}
	}
}

func TestProjectDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := randomRel(rng, "R", []string{"a", "b", "c"}, 800, 8)
	want := relation.New("want", "c", "a")
	for i := 0; i < r.Size(); i++ {
		row := r.Row(i)
		want.Add(row.Strings()[2], row.Strings()[0])
	}
	for _, size := range testSizes {
		it := batch.Project(batch.Scan(r, size, nil), []int{2, 0}, []string{"c", "a"}, size, nil)
		got := mustMaterialize(t, it, "out")
		if !relation.Equal(got, want) {
			t.Fatalf("size %d: projection %d rows, want %d", size, got.Size(), want.Size())
		}
	}
}

// valueRel builds an arity-column relation of up to n distinct rows drawn
// from universe.
func valueRel(t *testing.T, rng *rand.Rand, arity, n int, universe []relation.Value) *relation.Relation {
	attrs := make([]string, arity)
	for c := range attrs {
		attrs[c] = fmt.Sprintf("c%d", c)
	}
	r := relation.New("R", attrs...)
	for i := 0; i < n; i++ {
		row := make(relation.Tuple, arity)
		for c := range row {
			row[c] = universe[rng.Intn(len(universe))]
		}
		if _, err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestProjectMatchesProjectIdx checks both dedup keys — one packed uint64
// (1–2 columns) and the byte string (3+) — and the covering projections
// that skip dedup against relation.ProjectIdx on the same rows.
func TestProjectMatchesProjectIdx(t *testing.T) {
	const top = math.MaxUint32
	// Small IDs next to IDs near the top of the range: a packing that
	// truncated, sign-extended or overlapped halves would merge rows here.
	edge := []relation.Value{0, 1, 2, top - 2, top - 1, top}
	// swapped holds (x,y,k) and (y,x,k) for every k: projecting onto (0,1)
	// or (1,0) must keep both orders apart.
	swapped := relation.New("R", "c0", "c1", "c2")
	for k := relation.Value(0); k < 10; k++ {
		for _, row := range []relation.Tuple{{1, top, k}, {top, 1, k}, {0, 1, k}, {1, 0, k}} {
			if _, err := swapped.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	cases := []struct {
		name string
		in   *relation.Relation
		idx  []int
	}{
		{"w1 dups", valueRel(t, rng, 3, 500, edge), []int{1}},
		{"w1 distinct", seqRel(2, 500, true), []int{0}},
		{"w2 repeated", valueRel(t, rng, 2, 300, edge), []int{0, 0}},
		{"w2 swapped", swapped, []int{0, 1}},
		{"w2 swapped reversed", swapped, []int{1, 0}},
		{"w2 dups", valueRel(t, rng, 3, 800, edge), []int{2, 0}},
		{"w3 repeated", valueRel(t, rng, 3, 300, edge), []int{1, 0, 1}},
		{"w3 dups", valueRel(t, rng, 4, 2000, edge), []int{3, 1, 0}},
		{"w3 swapped", swapped, []int{1, 0, 1}},
		{"w4 dups", valueRel(t, rng, 5, 3000, edge), []int{0, 1, 2, 3}},
		{"w4 distinct", seqRel(5, 800, true), []int{4, 3, 2, 1}},
		{"w5 dups", valueRel(t, rng, 6, 3000, edge[:3]), []int{0, 1, 2, 3, 4}},
		{"w6 dups", valueRel(t, rng, 7, 3000, edge[:2]), []int{6, 5, 4, 3, 2, 1}},
		{"w6 distinct", seqRel(7, 800, true), []int{0, 1, 2, 3, 4, 5}},
		// Covering projections: every input column kept, so no dedup runs.
		{"w2 covering swap", valueRel(t, rng, 2, 30, edge), []int{1, 0}},
		{"w3 covering repeated", valueRel(t, rng, 2, 30, edge), []int{1, 0, 1}},
		{"w4 covering", valueRel(t, rng, 4, 500, edge), []int{0, 3, 2, 1}},
		{"w6 covering repeated", valueRel(t, rng, 3, 200, edge), []int{0, 1, 2, 2, 1, 0}},
	}
	for _, tc := range cases {
		want, err := tc.in.ProjectIdx(tc.idx...)
		if err != nil {
			t.Fatal(err)
		}
		attrs, err := relation.ProjectedAttrs(tc.in.Attrs, tc.idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 1024} {
			got := mustMaterialize(t, batch.Project(batch.Scan(tc.in, size, nil), tc.idx, attrs, size, nil), "out")
			if !relation.Equal(got, want) {
				t.Errorf("%s, size %d: projection %v of %d rows gave %d rows, ProjectIdx %d",
					tc.name, size, tc.idx, tc.in.Size(), got.Size(), want.Size())
			}
		}
	}
}

// seqRel builds the relation of rows (i, i+1, ..., i+arity-1) for i < n,
// every row distinct in every column; with down set, each value v is
// counted down from the top of the ID range instead (MaxUint32 - v).
func seqRel(arity, n int, down bool) *relation.Relation {
	attrs := make([]string, arity)
	cols := make([][]relation.Value, arity)
	for c := range cols {
		attrs[c] = fmt.Sprintf("c%d", c)
		cols[c] = make([]relation.Value, n)
		for i := range cols[c] {
			cols[c][i] = relation.Value(i + c)
			if down {
				cols[c][i] = math.MaxUint32 - cols[c][i]
			}
		}
	}
	return relation.NewFromColumns("R", attrs, cols)
}

// drain pulls it to end of stream.
func drain(tb testing.TB, it batch.Iterator) {
	for {
		b, err := it.Next(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		if b == nil {
			return
		}
	}
}

// TestProjectAllocsIndependentOfRows pins the dedup set as allocation-free
// per row: projecting 1 000 and 16 000 distinct rows onto two columns may
// differ only by the set's map growth (about 125 allocations with Go 1.24's
// maps), where a key boxed into a string costs one allocation for each of
// the 15 000 extra rows. A covering projection keeps no set and allocates
// equally at both sizes.
func TestProjectAllocsIndependentOfRows(t *testing.T) {
	allocs := func(arity, rows int, idx []int) float64 {
		r := seqRel(arity, rows, false)
		attrs, err := relation.ProjectedAttrs(r.Attrs, idx)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			drain(t, batch.Project(batch.Scan(r, 0, nil), idx, attrs, 0, nil))
		})
	}
	const growth = 256
	if small, large := allocs(3, 1000, []int{2, 0}), allocs(3, 16000, []int{2, 0}); large-small > growth {
		t.Fatalf("dedup allocates %v times over 1 000 rows and %v over 16 000: more than %d of map growth", small, large, growth)
	}
	if small, large := allocs(2, 1000, []int{1, 0}), allocs(2, 16000, []int{1, 0}); small != large {
		t.Fatalf("covering projection allocates %v times over 1 000 rows and %v over 16 000", small, large)
	}
}

// TestCoveringProjectCountsRows pins that a covering projection, run as a
// Keep, still counts as a pipeline stage in Metrics, as a deduplicating one
// does.
func TestCoveringProjectCountsRows(t *testing.T) {
	r := seqRel(3, 5000, false)
	for _, idx := range [][]int{{2, 0, 1}, {2, 0}} {
		attrs, err := relation.ProjectedAttrs(r.Attrs, idx)
		if err != nil {
			t.Fatal(err)
		}
		m := batch.Counters.NewSet()
		drain(t, batch.Project(batch.Scan(r, 0, nil), idx, attrs, 0, m))
		if rows, n := count(m, "stream_rows"), count(m, "stream_batches"); rows != int64(r.Size()) || n == 0 {
			t.Errorf("projection %v of %d distinct rows: %d rows streamed in %d batches", idx, r.Size(), rows, n)
		}
	}
}

// BenchmarkProject drains a projection of 64 Ki distinct input rows onto
// 2, 4 and 6 columns, with no and with half the projected rows duplicated,
// the covering projection that skips dedup, and projections onto one and
// two columns of a small domain through the hash and the dense dedup set.
func BenchmarkProject(b *testing.B) {
	const rows = 1 << 16
	// dupRel has width+1 columns; with dup set, rows 2i and 2i+1 agree on
	// the first width columns and differ in the last.
	dupRel := func(width int, dup bool) *relation.Relation {
		attrs := make([]string, width+1)
		cols := make([][]relation.Value, width+1)
		for c := range cols {
			attrs[c] = fmt.Sprintf("c%d", c)
			cols[c] = make([]relation.Value, rows)
			for i := range cols[c] {
				switch {
				case c == width:
					cols[c][i] = relation.Value(i % 2)
				case dup:
					cols[c][i] = relation.Value(i/2 + c)
				default:
					cols[c][i] = relation.Value(i + c)
				}
			}
		}
		return relation.NewFromColumns("R", attrs, cols)
	}
	run := func(b *testing.B, r *relation.Relation, idx []int) {
		attrs, err := relation.ProjectedAttrs(r.Attrs, idx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			drain(b, batch.Project(batch.Scan(r, 0, nil), idx, attrs, 0, nil))
		}
	}
	for _, width := range []int{2, 4, 6} {
		idx := make([]int, width)
		for c := range idx {
			idx[c] = c
		}
		for _, dup := range []bool{false, true} {
			r := dupRel(width, dup)
			pct := 0
			if dup {
				pct = 50
			}
			b.Run(fmt.Sprintf("width=%d/dup=%d%%", width, pct), func(b *testing.B) { run(b, r, idx) })
		}
	}
	b.Run("width=4/covering", func(b *testing.B) { run(b, seqRel(4, rows, false), []int{3, 2, 1, 0}) })
	// Small domains: three columns of 1 200 values each (one path-4 edge
	// relation's node range on the benchmark's scaled-joins), projected
	// onto one and two of them through both dedup sets.
	rng := rand.New(rand.NewSource(1200))
	small := make([][]relation.Value, 3)
	for c := range small {
		small[c] = make([]relation.Value, rows)
		for i := range small[c] {
			small[c][i] = relation.Value(5000 + rng.Intn(1200))
		}
	}
	small[2] = small[2][:0]
	for i := 0; i < rows; i++ {
		small[2] = append(small[2], relation.Value(i)) // keeps the rows distinct
	}
	sr := relation.NewFromColumns("R", []string{"c0", "c1", "c2"}, small)
	for _, idx := range [][]int{{0}, {0, 1}} {
		attrs, err := relation.ProjectedAttrs(sr.Attrs, idx)
		if err != nil {
			b.Fatal(err)
		}
		ranges := []relation.Range{sr.ValueRange(0), sr.ValueRange(1), sr.ValueRange(2)}
		b.Run(fmt.Sprintf("domain=1200/width=%d/hash", len(idx)), func(b *testing.B) { run(b, sr, idx) })
		b.Run(fmt.Sprintf("domain=1200/width=%d/dense", len(idx)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				set := batch.NewDenseSet(ranges, idx)
				drain(b, batch.ProjectDense(batch.Scan(sr, 0, nil), idx, attrs, set, 0, nil))
			}
		})
		// Four parts partitioned on the column the projection drops, so
		// duplicates cross parts: each part marks a private bitmap.
		shards := shard.Partition(sr, 2, 4)
		b.Run(fmt.Sprintf("domain=1200/width=%d/dense/parts=4", len(idx)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ins := make([]batch.Iterator, len(shards))
				for k := range ins {
					ins[k] = batch.Scan(shards[k], 0, nil)
				}
				for _, out := range batch.ProjectDenseParts(ins, idx, attrs, batch.NewDenseSet(ranges, idx), 0, nil) {
					drain(b, out)
				}
			}
		})
	}
}

// BenchmarkJoinProbe drains the natural join of 64 Ki left rows with a
// relation matching each of them fan-out times (1, 5 and 20) on one
// column, keeping 2, 3 and 4 columns: the join column, up to two more of
// the left's, and one of the right's. The right's index is warm.
func BenchmarkJoinProbe(b *testing.B) {
	const rows, keys = 1 << 16, 4096
	for _, fanout := range []int{1, 5, 20} {
		rcols := [][]relation.Value{make([]relation.Value, keys*fanout), make([]relation.Value, keys*fanout)}
		for i := range rcols[0] {
			rcols[0][i], rcols[1][i] = relation.Value(i/fanout), relation.Value(i)
		}
		right := relation.NewFromColumns("S", []string{"k", "r"}, rcols)
		right.Index(0)
		for _, kept := range []int{2, 3, 4} {
			lattrs := []string{"k", "l1", "l2"}[:kept-1]
			lcols := make([][]relation.Value, len(lattrs))
			for c := range lcols {
				lcols[c] = make([]relation.Value, rows)
				for i := range lcols[c] {
					lcols[c][i] = relation.Value(i)
				}
			}
			for i := range lcols[0] {
				lcols[0][i] = relation.Value(i % keys)
			}
			left := relation.NewFromColumns("R", lattrs, lcols)
			_, keep := relation.NaturalJoinSchema(left.Attrs, right.Attrs, []int{0})
			pairs := [][2]int{{0, 0}}
			b.Run(fmt.Sprintf("fanout=%d/kept=%d", fanout, kept), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					drain(b, batch.JoinProbe(batch.Scan(left, 0, nil), right, pairs, 0, nil, keep...))
				}
			})
		}
	}
}

// allocBytes returns the bytes f allocates per call, averaged over runs
// after one warm-up call, with one P so no other goroutine's allocations
// are counted (as testing.AllocsPerRun does).
func allocBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// headerSlack covers what a sink or an exchange allocates besides column
// values: column and staging headers, the relation, the iterators.
const headerSlack = 16 << 10

// TestMaterializeAllocsProportionalToRows pins the sink at its output's
// column bytes: rows are staged in chunks the pool lends back call after
// call, so the one exact allocation of the columns is all that grows with
// the rows — when the chunks come out full (64 Ki rows), when one more
// batch starts a new chunk, and for a single batch. The race detector
// makes sync.Pool drop Puts at random, so there the bound is not asserted.
func TestMaterializeAllocsProportionalToRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	cases := []struct {
		name string
		rows int
	}{
		{"64Ki rows", 1 << 16},
		{"64Ki rows and one batch", 1<<16 + batch.DefaultSize},
		{"one batch", 1000},
	}
	for _, width := range []int{2, 4} {
		for _, tc := range cases {
			r := seqRel(width, tc.rows, false)
			got := allocBytes(5, func() { mustMaterialize(t, batch.Scan(r, 0, nil), "out") })
			out := float64(tc.rows * width * 4)
			if limit := out + headerSlack; got > limit {
				t.Errorf("width %d, %s: sink allocated %.0f bytes for %.0f bytes of columns, over %.0f (1× + %d)",
					width, tc.name, got, out, limit, headerSlack)
			}
		}
	}
}

// scanParts returns one scan per shard of r partitioned on column 0 into
// p parts, in batches of size rows.
func scanParts(r *relation.Relation, p, size int) []batch.Iterator {
	sh := shard.Partition(r, 0, p)
	its := make([]batch.Iterator, len(sh))
	for k := range its {
		its[k] = batch.Scan(sh[k], size, nil)
	}
	return its
}

// TestMaterializeParts checks the multi-part sink against the
// concatenation of each part's Materialize, row for row: part 0's rows
// first, then part 1's, at offsets that are the parts' cumulative sizes.
// The parts include empty ones, batch sizes that
// leave chunks part-filled, more rows than one staging chunk holds, and a
// Boolean (arity-0) head.
func TestMaterializeParts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 700, 40000} {
		for _, width := range []int{1, 3} {
			attrs := []string{"a", "b", "c"}[:width]
			r := randomRel(rng, "R", attrs, n, 1<<20)
			for _, size := range testSizes {
				build := func() []batch.Iterator {
					its := scanParts(r, 4, size)
					// Empty parts at both ends and in the middle.
					its = append([]batch.Iterator{batch.Empty(attrs)}, its...)
					its = slices.Insert(its, 3, batch.Empty(attrs))
					return append(its, batch.Empty(attrs))
				}
				var each []*relation.Relation
				for _, it := range build() {
					each = append(each, mustMaterialize(t, it, "part"))
				}
				want, err := relation.Concat("out", attrs, each...)
				if err != nil {
					t.Fatal(err)
				}
				m := batch.Counters.NewSet()
				got, offs, err := batch.MaterializeParts(ctx, build(), "out", nil, m)
				if err != nil {
					t.Fatal(err)
				}
				if got.Size() != r.Size() {
					t.Fatalf("n=%d width=%d size=%d: %d rows, want %d", n, width, size, got.Size(), r.Size())
				}
				if want := cumulative(each); !slices.Equal(offs, want) {
					t.Fatalf("n=%d width=%d size=%d: offsets %v, want the cumulative part sizes %v", n, width, size, offs, want)
				}
				for c := range attrs {
					if !slices.Equal(got.Column(c), want.Column(c)) {
						t.Fatalf("n=%d width=%d size=%d: column %d differs from the concatenated parts", n, width, size, c)
					}
				}
				if w := count(m, "stream_bytes_never_materialized"); w != -int64(r.Size()*width*4) {
					t.Errorf("n=%d width=%d size=%d: bytes_never_materialized %d, want minus the output's column bytes", n, width, size, w)
				}
			}
		}
	}
	// A Boolean head: parts of arity 0, one holding the empty tuple.
	unit := relation.New("U")
	unit.MustInsert()
	for _, c := range []struct {
		its  []batch.Iterator
		want int
		offs []int
	}{
		{[]batch.Iterator{batch.Empty(nil), batch.Scan(unit, 0, nil), batch.Empty(nil)}, 1, []int{0, 0, 1, 1}},
		{[]batch.Iterator{batch.Empty(nil), batch.Empty(nil)}, 0, []int{0, 0, 0}},
	} {
		got, offs, err := batch.MaterializeParts(ctx, c.its, "Q", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Arity() != 0 || got.Size() != c.want {
			t.Errorf("Boolean sink: arity %d with %d tuples, want arity 0 with %d", got.Arity(), got.Size(), c.want)
		}
		if !slices.Equal(offs, c.offs) {
			t.Errorf("Boolean sink: offsets %v, want %v", offs, c.offs)
		}
	}
}

// cumulative returns the offsets of parts laid end to end: 0, then the
// running sum of their sizes.
func cumulative(parts []*relation.Relation) []int {
	offs := []int{0}
	for _, p := range parts {
		offs = append(offs, offs[len(offs)-1]+p.Size())
	}
	return offs
}

// cancelAtEnd passes its source through and cancels the context when the
// source ends, returning the cancellation instead of end of stream.
type cancelAtEnd struct {
	batch.Iterator
	cancel context.CancelFunc
}

func (c *cancelAtEnd) Next(ctx context.Context) (*batch.Batch, error) {
	b, err := c.Iterator.Next(ctx)
	if b == nil && err == nil {
		c.cancel()
		return nil, ctx.Err()
	}
	return b, err
}

// TestMaterializePartsCancel cancels a four-part sink as its last part
// ends, after every row is staged: the sink returns ctx.Err(), and its
// chunks go back to the pool, so the next sink of the same rows allocates
// only its output columns. Both sinks run on one P, whose pool the chunks
// return to.
func TestMaterializePartsCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const width = 2
	r := seqRel(width, 1<<17, false)
	ctx, cancel := context.WithCancel(context.Background())
	its := scanParts(r, 4, 0)
	its[3] = &cancelAtEnd{Iterator: its[3], cancel: cancel}
	if _, _, err := batch.MaterializeParts(ctx, its, "out", nil, nil); err != context.Canceled {
		t.Fatalf("cancelled sink returned %v, want %v", err, context.Canceled)
	}
	if raceEnabled {
		return // sync.Pool drops Puts under the race detector
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := batch.MaterializeParts(context.Background(), scanParts(r, 4, 0), "out", nil, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if out := float64(r.Size() * width * 4); got > out+headerSlack {
		t.Errorf("sink after a cancelled one allocated %.0f bytes for %.0f bytes of columns, over 1× + %d: the cancelled sink's chunks did not go back to the pool",
			got, out, headerSlack)
	}
}

// TestExchangeAllocsProportionalToRows pins the scatter path at the same
// bound: every output shard writes rows into chunk slabs that become the
// sealed relations without a copy, so draining the parts of a 64 Ki-row
// exchange allocates the rows once, plus at most one partly filled chunk
// per shard.
func TestExchangeAllocsProportionalToRows(t *testing.T) {
	const rows, p = 1 << 16, 4
	for _, width := range []int{2, 4} {
		r := seqRel(width, rows, false)
		got := allocBytes(5, func() {
			ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 0, nil)}, r.Attrs, 0, p, 0, nil, nil, nil)
			for k := 0; k < p; k++ {
				drain(t, ex.Part(k))
			}
		})
		out := float64(rows * width * 4)
		openChunks := float64(p * batch.DefaultSize * width * 4)
		if limit := 2*out + openChunks + headerSlack; got > limit {
			t.Errorf("width %d: exchange allocated %.0f bytes for %.0f bytes of columns, over %.0f", width, got, out, limit)
		}
	}
}

func TestExchangeRepartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRel(rng, "R", []string{"a", "b"}, 4000, 300)
	for _, p := range []int{2, 5} {
		for _, size := range []int{7, 256} {
			// Feed the exchange from 3 arbitrary slices of the input.
			srcs := make([]batch.Iterator, 0, 3)
			for _, part := range shard.Partition(r, 1, 3) {
				srcs = append(srcs, batch.Scan(part, size, nil))
			}
			var routedRows atomic.Int64
			ex := batch.NewExchange(srcs, r.Attrs, 0, p, size, nil,
				func(n int) { routedRows.Add(int64(n)) }, nil)
			outs := make([]*relation.Relation, p)
			var wg sync.WaitGroup
			for k := 0; k < p; k++ {
				k := k
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := batch.Materialize(context.Background(), ex.Part(k), "part", nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					outs[k] = out
				}()
			}
			wg.Wait()
			union := relation.New("U", "a", "b")
			total := 0
			for k, out := range outs {
				total += out.Size()
				for i := 0; i < out.Size(); i++ {
					if got := shard.ShardOf(out.At(i, 0), p); got != k {
						t.Fatalf("p=%d size=%d: row routed to part %d, ShardOf says %d", p, size, k, got)
					}
					union.Insert(out.Row(i))
				}
			}
			if total != r.Size() || !relation.Equal(union, r) {
				t.Fatalf("p=%d size=%d: exchange emitted %d rows, want %d", p, size, total, r.Size())
			}
			if routedRows.Load() != int64(r.Size()) {
				t.Fatalf("p=%d size=%d: onRows saw %d rows, want %d", p, size, routedRows.Load(), r.Size())
			}
		}
	}
	// A lagging part's rows park in governed chunks: draining part 0 whole
	// before part 1 is pulled queues part 1's ~2000 rows, which seal into
	// 1024-row chunks. Concurrent consumers may keep every queue below a
	// chunk, so the loop above cannot assert this.
	var governed atomic.Int64
	ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 7, nil)}, r.Attrs, 0, 2, 7,
		func(*relation.Relation) { governed.Add(1) }, nil, nil)
	first := mustMaterialize(t, ex.Part(0), "part")
	if governed.Load() == 0 {
		t.Fatal("no chunk of the lagging part ever registered with the governor")
	}
	if second := mustMaterialize(t, ex.Part(1), "part"); first.Size()+second.Size() != r.Size() {
		t.Fatalf("exchange emitted %d rows, want %d", first.Size()+second.Size(), r.Size())
	}
}

// TestExchangeRoutesHotKeyToOnePart: a single dominant key value sends
// every row to one part, whole, and leaves the other parts empty.
func TestExchangeRoutesHotKeyToOnePart(t *testing.T) {
	r := relation.New("R", "a", "b")
	for i := 0; i < 5000; i++ {
		r.Add("hub", fmt.Sprintf("x%d", i)) // every row routes to one part
	}
	ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 256, nil)}, r.Attrs, 0, 4, 256, nil, nil, nil)
	hot := shard.ShardOf(r.At(0, 0), 4)
	total := 0
	for k := 0; k < 4; k++ {
		out := mustMaterialize(t, ex.Part(k), "part")
		total += out.Size()
		if k != hot && out.Size() != 0 {
			t.Fatalf("part %d received %d rows, all keys hash to %d", k, out.Size(), hot)
		}
	}
	if total != r.Size() {
		t.Fatalf("exchange emitted %d rows, want %d", total, r.Size())
	}
}

// countingIter counts pulls.
type countingIter struct {
	src   batch.Iterator
	calls atomic.Int64
}

func (c *countingIter) Attrs() []string { return c.src.Attrs() }
func (c *countingIter) Next(ctx context.Context) (*batch.Batch, error) {
	c.calls.Add(1)
	return c.src.Next(ctx)
}

// BenchmarkMaterialize sinks 64 Ki rows of width 2 and 4 streamed in
// default-size batches: from one pipeline through Materialize, and from
// four (the rows partitioned on their first column) through
// MaterializeParts.
func BenchmarkMaterialize(b *testing.B) {
	for _, width := range []int{2, 4} {
		r := seqRel(width, 1<<16, false)
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("width=%d/parts=%d", width, p), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := batch.MaterializeParts(context.Background(), scanParts(r, p, 0), "out", nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExchange repartitions 64 Ki rows of width 2 and 4 onto four
// shards and drains the parts one after another, so most rows park in
// sealed chunks before they are read.
func BenchmarkExchange(b *testing.B) {
	const p = 4
	for _, width := range []int{2, 4} {
		r := seqRel(width, 1<<16, false)
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 0, nil)}, r.Attrs, 0, p, 0, nil, nil, nil)
				for k := 0; k < p; k++ {
					drain(b, ex.Part(k))
				}
			}
		})
	}
}

// count reads the named counter of a Counters set.
func count(m *counter.Set, name string) (v int64) {
	m.Each(func(n string, x int64) {
		if n == name {
			v = x
		}
	})
	return v
}

func TestMetricsSnapshot(t *testing.T) {
	m := batch.Counters.NewSet()
	r := randomRel(rand.New(rand.NewSource(13)), "R", []string{"a", "b"}, 100, 50)
	if _, err := batch.Materialize(context.Background(), batch.Scan(r, 16, m), "out", nil, m); err != nil {
		t.Fatal(err)
	}
	if count(m, "stream_batches") == 0 || count(m, "stream_rows") != int64(r.Size()) {
		t.Fatalf("counters after a scan+materialize: rows %d in %d batches", count(m, "stream_rows"), count(m, "stream_batches"))
	}
	// The sink wrote every byte the scan emitted.
	if saved := count(m, "stream_bytes_never_materialized"); saved != 0 {
		t.Fatalf("bytes_never_materialized = %d after scan+materialize, want 0", saved)
	}
	m.Reset()
	m.Each(func(name string, v int64) {
		if v != 0 {
			t.Errorf("reset left %s = %d", name, v)
		}
	})
}
