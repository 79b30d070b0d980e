package batch_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cqbound/internal/batch"
	"cqbound/internal/relation"
)

// rangesOf returns r's column ranges.
func rangesOf(r *relation.Relation) []relation.Range {
	out := make([]relation.Range, r.Arity())
	for c := range out {
		out[c] = r.ValueRange(c)
	}
	return out
}

// TestNewDenseSetChoosesByDomain pins the choice between the two dedup
// sets: the kept columns' ranges may multiply to at most 2^24 bits (the
// package's denseMaxBits), repeated positions count once, and dropped
// columns do not count at all.
func TestNewDenseSetChoosesByDomain(t *testing.T) {
	g := func(lo, width uint64) relation.Range {
		return relation.Range{Lo: relation.Value(lo), Hi: relation.Value(lo + width - 1)}
	}
	ranges := []relation.Range{g(7, 4096), g(math.MaxUint32-4095, 4096), g(0, 4097), g(0, math.MaxUint32)}
	cases := []struct {
		idx  []int
		bits uint64 // 0: no dense set
	}{
		{[]int{0, 1}, 1 << 24},
		{[]int{1, 0, 1}, 1 << 24},
		{[]int{0, 0}, 4096},
		{[]int{2}, 4097},
		{[]int{0, 2}, 0},
		{[]int{3}, 0},
		{[]int{0, 4}, 0}, // no such column
	}
	for _, c := range cases {
		set := batch.NewDenseSet(ranges, c.idx)
		switch {
		case c.bits == 0 && set != nil:
			t.Errorf("idx %v: dense set of %d bits, want none", c.idx, set.Bits())
		case c.bits != 0 && (set == nil || set.Bits() != c.bits):
			t.Errorf("idx %v: dense set %v, want %d bits", c.idx, set, c.bits)
		}
	}
}

// TestProjectDenseMatchesProjectIdx checks the dense dedup set against
// relation.ProjectIdx on small domains, including one at the top of the ID
// range (the bit index subtracts each range's start), repeated positions,
// covering projections and an empty input.
func TestProjectDenseMatchesProjectIdx(t *testing.T) {
	const top = math.MaxUint32
	rng := rand.New(rand.NewSource(31))
	low := []relation.Value{3, 4, 5, 9, 40}
	high := []relation.Value{top - 40, top - 2, top - 1, top}
	cases := []struct {
		name string
		in   *relation.Relation
		idx  []int
	}{
		{"w1 dups", valueRel(t, rng, 3, 500, low), []int{1}},
		{"w1 high", valueRel(t, rng, 2, 300, high), []int{0}},
		{"w2 dups", valueRel(t, rng, 3, 800, low), []int{2, 0}},
		{"w2 high", valueRel(t, rng, 3, 800, high), []int{0, 2}},
		{"w2 repeated", valueRel(t, rng, 2, 300, low), []int{0, 0}},
		{"w3 repeated", valueRel(t, rng, 3, 300, high), []int{1, 0, 1}},
		{"w3 dups", valueRel(t, rng, 4, 2000, low), []int{3, 1, 0}},
		{"w4 dups", valueRel(t, rng, 5, 3000, low[:3]), []int{0, 1, 2, 3}},
		{"w2 distinct", seqRel(3, 2000, false), []int{2, 1}},
		{"w2 covering", valueRel(t, rng, 2, 30, low), []int{1, 0}},
		{"empty", relation.New("E", "a", "b"), []int{1}},
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
		for _, size := range testSizes {
			set := batch.NewDenseSet(rangesOf(tc.in), tc.idx)
			if set == nil {
				t.Fatalf("%s: no dense set over a small domain", tc.name)
			}
			got := mustMaterialize(t, batch.ProjectDense(batch.Scan(tc.in, size, nil), tc.idx, attrs, set, size, nil), "out")
			if !relation.Equal(got, want) {
				t.Errorf("%s, size %d: dense projection %v of %d rows gave %d rows, ProjectIdx %d",
					tc.name, size, tc.idx, tc.in.Size(), got.Size(), want.Size())
			}
		}
	}
}

// drainParts materializes every output part, concurrently or one after
// another, and returns the parts.
func drainParts(t *testing.T, outs []batch.Iterator, concurrent bool) []*relation.Relation {
	t.Helper()
	rels := make([]*relation.Relation, len(outs))
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for k := range outs {
		drain := func() {
			rels[k], errs[k] = batch.Materialize(context.Background(), outs[k], "out", nil, nil)
		}
		if !concurrent {
			drain()
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); drain() }()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return rels
}

// TestProjectDensePartsMatchesProjectIdx projects four pipelines as one
// set, every projected row duplicated across all four inputs: each row
// must come out of exactly one output part, drained concurrently (run with
// -race, as CI does) or one part after another, and the parts must hold
// the same rows in the same order on every run.
func TestProjectDensePartsMatchesProjectIdx(t *testing.T) {
	const parts = 4
	rng := rand.New(rand.NewSource(32))
	whole := valueRel(t, rng, 3, 4000, []relation.Value{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	for _, idx := range [][]int{{0, 2}, {2, 0, 2}, {1}} {
		attrs, err := relation.ProjectedAttrs(whole.Attrs, idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := whole.ProjectIdx(idx...)
		if err != nil {
			t.Fatal(err)
		}
		var first []*relation.Relation
		for _, size := range testSizes {
			for _, concurrent := range []bool{true, false} {
				ins := make([]batch.Iterator, parts)
				for k := range ins {
					// Every pipeline scans all rows.
					ins[k] = batch.Scan(whole, size, nil)
				}
				set := batch.NewDenseSet(rangesOf(whole), idx)
				outs := drainParts(t, batch.ProjectDenseParts(ins, idx, attrs, set, size, nil), concurrent)
				total := 0
				for _, r := range outs {
					total += r.Size()
				}
				got, err := relation.Concat("out", attrs, outs...)
				if err != nil {
					t.Fatal(err)
				}
				if total != want.Size() || !relation.Equal(got, want) {
					t.Fatalf("idx %v, size %d: %d parts emitted %d rows, %d distinct; ProjectIdx has %d", idx, size, parts, total, got.Size(), want.Size())
				}
				if first == nil {
					first = outs
					continue
				}
				for k := range outs {
					for c := range attrs {
						if !slices.Equal(outs[k].Column(c), first[k].Column(c)) {
							t.Fatalf("idx %v, size %d: part %d column %d differs between runs", idx, size, k, c)
						}
					}
				}
			}
		}
	}
}

// TestProjectDensePartsFailsEveryPart pins that a value outside the set's
// ranges in one input is the error of every output part.
func TestProjectDensePartsFailsEveryPart(t *testing.T) {
	ok := relation.NewFromColumns("R", []string{"a", "b"}, [][]relation.Value{{150, 160}, {5, 6}})
	bad := relation.NewFromColumns("R", []string{"a", "b"}, [][]relation.Value{{150, 200}, {5, 6}})
	set := batch.NewDenseSet([]relation.Range{{Lo: 100, Hi: 199}, {Lo: 5, Hi: 6}}, []int{0})
	outs := batch.ProjectDenseParts([]batch.Iterator{batch.Scan(ok, 0, nil), batch.Scan(bad, 0, nil)}, []int{0}, []string{"a"}, set, 0, nil)
	for k, it := range outs {
		if _, err := batch.Materialize(context.Background(), it, "out", nil, nil); err == nil || !strings.Contains(err.Error(), "outside its range") {
			t.Fatalf("part %d: err %v, want an out-of-range error", k, err)
		}
	}
}

// TestDenseProjectRejectsValueOutsideRange pins that a row the set has no
// bit for is an error, never a bit set somewhere else: ranges taken from
// one relation, rows from another with a value below and one above.
func TestDenseProjectRejectsValueOutsideRange(t *testing.T) {
	ranges := []relation.Range{{Lo: 100, Hi: 199}, {Lo: 5, Hi: 6}}
	for _, bad := range []relation.Value{99, 200} {
		in := relation.NewFromColumns("R", []string{"a", "b"}, [][]relation.Value{{150, bad, 120}, {5, 6, 6}})
		set := batch.NewDenseSet(ranges, []int{0})
		_, err := batch.Materialize(context.Background(), batch.ProjectDense(batch.Scan(in, 0, nil), []int{0}, []string{"a"}, set, 0, nil), "out", nil, nil)
		if err == nil || !strings.Contains(err.Error(), "outside its range") {
			t.Fatalf("value %d outside [100, 199]: err %v, want an out-of-range error", bad, err)
		}
	}
}

// TestDenseMarkRejectsValueInLaterBatch pins the batch-at-a-time bit
// computation to the same error as a row-at-a-time one: the one bad value
// sits in the second kept column, in a batch after the first, of one of
// the parts ProjectDenseParts marks, and in the single pipeline
// ProjectDense reads.
func TestDenseMarkRejectsValueInLaterBatch(t *testing.T) {
	const rows = 3000
	cols := [][]relation.Value{make([]relation.Value, rows), make([]relation.Value, rows), make([]relation.Value, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i], cols[1][i], cols[2][i] = relation.Value(100+i%50), relation.Value(5+i%2), relation.Value(i)
	}
	good := relation.NewFromColumns("R", []string{"a", "b", "c"}, cols)
	cols[1] = slices.Clone(cols[1])
	cols[1][2500] = 7
	bad := relation.NewFromColumns("R", []string{"a", "b", "c"}, cols)
	ranges := []relation.Range{{Lo: 100, Hi: 149}, {Lo: 5, Hi: 6}, {Lo: 0, Hi: rows - 1}}
	idx, attrs := []int{0, 1}, []string{"a", "b"}
	for _, size := range testSizes {
		ins := []batch.Iterator{batch.Scan(good, size, nil), batch.Scan(bad, size, nil)}
		for k, it := range batch.ProjectDenseParts(ins, idx, attrs, batch.NewDenseSet(ranges, idx), size, nil) {
			if _, err := batch.Materialize(context.Background(), it, "out", nil, nil); err == nil || !strings.Contains(err.Error(), "value 7 in column 1 is outside its range") {
				t.Fatalf("size %d, part %d: err %v, want value 7 in column 1 out of range", size, k, err)
			}
		}
		it := batch.ProjectDense(batch.Scan(bad, size, nil), idx, attrs, batch.NewDenseSet(ranges, idx), size, nil)
		if _, err := batch.Materialize(context.Background(), it, "out", nil, nil); err == nil || !strings.Contains(err.Error(), "value 7 in column 1 is outside its range") {
			t.Fatalf("size %d, one pipeline: err %v, want value 7 in column 1 out of range", size, err)
		}
	}
}
