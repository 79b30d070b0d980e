package shard

// Tests for the piped operators: row-range parts, the one shared probe
// of the right operand, and the projection's dedup sets, one table row
// per case. Every row drains its parts and compares against the
// single-part relation operators, which are the semantics of record.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cqbound/internal/batch"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
	"cqbound/internal/spill"
)

// zipfRel builds a relation whose first column is Zipf-skewed: value "hot"
// appears in about `hotFrac` of the rows, the rest are uniform.
func zipfRel(rng *rand.Rand, name string, attrs []string, n int, hotFrac float64, universe int) *relation.Relation {
	r := relation.New(name, attrs...)
	for i := 0; i < n; i++ {
		vals := make([]string, len(attrs))
		if rng.Float64() < hotFrac {
			vals[0] = "hot"
		} else {
			vals[0] = fmt.Sprintf("u%d", rng.Intn(universe))
		}
		for j := 1; j < len(vals); j++ {
			vals[j] = fmt.Sprintf("v%d", i*len(attrs)+j) // unique: no dedup
		}
		r.Add(vals...)
	}
	return r
}

// on opens r as pipelines partitioned on column key at the options'
// count, one scan per shard of Partition: the parts a hash projection's
// exchange leaves behind.
func on(r *relation.Relation, key int, opts *Options) *Piped {
	pd := PipedOf(r, opts)
	shards := Partition(r, key, opts.Count())
	pd.key, pd.parts = key, make([]batch.Iterator, len(shards))
	for k, s := range shards {
		pd.parts[k] = batch.Scan(s, opts.batchSize(), opts.batchMetrics())
	}
	return pd
}

func mustJoin(t *testing.T, opts *Options, pd *Piped, next *relation.Relation) *Piped {
	t.Helper()
	out, err := JoinPipedStream(context.Background(), opts, pd, next)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustSemijoin(t *testing.T, opts *Options, pd *Piped, next *relation.Relation) *Piped {
	t.Helper()
	out, err := SemijoinPipedStream(context.Background(), opts, pd, next)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustProject(t *testing.T, opts *Options, pd *Piped, idx ...int) *Piped {
	t.Helper()
	out, err := ProjectPiped(context.Background(), opts, pd, idx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustNaturalJoin(t *testing.T, rels ...*relation.Relation) *relation.Relation {
	t.Helper()
	cur := rels[0]
	for _, next := range rels[1:] {
		var err error
		if cur, err = relation.NaturalJoin(cur, next); err != nil {
			t.Fatal(err)
		}
	}
	return cur
}

func mustSemijoinRel(t *testing.T, l, r *relation.Relation) *relation.Relation {
	t.Helper()
	lCols, rCols := relation.SharedCols(l, r)
	out, err := relation.SemijoinOn(l, r, lCols, rCols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustProjectRel(t *testing.T, r *relation.Relation, idx ...int) *relation.Relation {
	t.Helper()
	out, err := r.ProjectIdx(idx...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drainParts materializes every part of pd on its own, in order.
func drainParts(t *testing.T, pd *Piped) []*relation.Relation {
	t.Helper()
	out := make([]*relation.Relation, len(pd.parts))
	for k, part := range pd.parts {
		var err error
		if out[k], err = batch.Materialize(context.Background(), part, "part", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkKeyed asserts that every row of part k has a key value that hashes
// to k: the parts are partitioned on column key.
func checkKeyed(t *testing.T, parts []*relation.Relation, key int) {
	t.Helper()
	for k, part := range parts {
		for i := 0; i < part.Size(); i++ {
			if ShardOf(part.At(i, key), len(parts)) != k {
				t.Fatalf("row %d of part %d violates the key %d", i, k, key)
			}
		}
	}
}

// spread rebuilds r with every value multiplied by stride: the same rows
// up to renaming, over a domain too wide for a dense dedup set.
func spread(t *testing.T, r *relation.Relation, stride relation.Value) *relation.Relation {
	t.Helper()
	cols := make([][]relation.Value, r.Arity())
	for c := range cols {
		for _, v := range r.Column(c) {
			if v > math.MaxUint32/stride {
				t.Fatalf("value %d overflows when spread by %d", v, stride)
			}
			cols[c] = append(cols[c], v*stride)
		}
	}
	return relation.NewFromColumns(r.Name, r.Attrs, cols)
}

// routeCounts is one run's counters, read from its Set.
type routeCounts struct {
	ShardedOps, FallbackOps, ExchangedRows, BroadcastOps, DenseProjections int64
}

// spillGauge reads the governor's registry entry spill_<name>.
func spillGauge(g *spill.Governor, name string) int64 {
	r := registrar{}
	g.Register(r)
	return r["spill_"+name]()
}

// registrar keeps the read func of every counter and gauge registered
// with it, by registry name.
type registrar map[string]func() int64

func (r registrar) Counters(s *counter.Set) {
	for _, c := range s.Cells() {
		r[c.Name] = c.V.Load
	}
}

func (r registrar) Gauge(name, _ string, fn func() int64) { r[name] = fn }

func readCounts(m *counter.Set) routeCounts {
	return routeCounts{m.Load(shardedOps), m.Load(fallbackOps), m.Load(exchangedRows),
		m.Load(broadcastOps), m.Load(denseProjections)}
}

// TestPipedOfSplitsIntoRowRanges pins how a scan opens: at or above
// MinRows with P = 4, four unkeyed parts whose row ranges tile [0, n)
// once, in order, each within a row of n/4; below MinRows, at P = 1 or
// with nil options, one part.
func TestPipedOfSplitsIntoRowRanges(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(19)), "R", []string{"a", "b"}, 1003, 1000)
	n := r.Size()
	pd := PipedOf(r, &Options{Shards: 4, MinRows: n})
	if pd.Parts() != 4 || pd.key != -1 {
		t.Fatalf("a %d-row scan at MinRows %d opened %d parts keyed %d, want 4 unkeyed", n, n, pd.Parts(), pd.key)
	}
	parts := drainParts(t, pd)
	at := 0
	for k, part := range parts {
		if part.Size() < n/4 || part.Size() > n/4+1 {
			t.Fatalf("part %d holds %d rows of %d", k, part.Size(), n)
		}
		for c := range r.Attrs {
			if !slices.Equal(part.Column(c), r.Column(c)[at:at+part.Size()]) {
				t.Fatalf("part %d, column %d is not rows [%d, %d) of the relation", k, c, at, at+part.Size())
			}
		}
		at += part.Size()
	}
	if at != n {
		t.Fatalf("parts tile %d rows of %d", at, n)
	}
	for _, opts := range []*Options{{Shards: 4, MinRows: n + 1}, {Shards: 1}, nil} {
		if pd := PipedOf(r, opts); pd.Parts() != 1 {
			t.Fatalf("options %+v opened %d parts, want 1", opts, pd.Parts())
		}
	}
}

func TestPipedRouting(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(20))
	r := randomRel(rng, "R", []string{"a", "b"}, 500, 25)
	s := randomRel(rng, "S", []string{"b", "c"}, 350, 25)
	u := randomRel(rng, "U", []string{"c", "d"}, 300, 25)
	ub := randomRel(rng, "U", []string{"b", "d"}, 300, 25)
	small := randomRel(rng, "T", []string{"b", "c"}, 30, 25)
	big := randomRel(rng, "B", []string{"b", "c"}, 6000, 200)
	wide := randomRel(rng, "W", []string{"a", "b", "c"}, 500, 8)
	other := randomRel(rng, "O", []string{"c", "d"}, 20, 5)
	hotL := zipfRel(rng, "L", []string{"k", "x"}, 600, 0.5, 10)
	hotR := zipfRel(rng, "H", []string{"k", "y"}, 200, 0.3, 10)
	hot := relation.V("hot")
	// Forty rows whose column b holds one value, spread far apart in a so
	// that a projection onto (b, a) deduplicates by hash.
	hubCols := [][]relation.Value{make([]relation.Value, 40), make([]relation.Value, 40), make([]relation.Value, 40)}
	for i := range hubCols[0] {
		hubCols[0][i], hubCols[1][i], hubCols[2][i] = relation.Value(i*1_000_000), 7, relation.Value(i)
	}
	hub := relation.NewFromColumns("H", []string{"a", "b", "c"}, hubCols)

	cases := []struct {
		name string
		opts Options // Metrics is filled in per run
		// build assembles the pipelines under test and the expected rows.
		build func(t *testing.T, opts *Options) (*Piped, *relation.Relation)
		// check sees the counters, the piped and its drained parts.
		check func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation)
	}{
		{
			name: "flat pipeline at MinRows splits into row ranges",
			opts: Options{Shards: p, MinRows: r.Size()},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, PipedOf(r, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if len(parts) != p || pd.key != -1 || m.ExchangedRows != 0 || m.ShardedOps != 1 || m.BroadcastOps != 1 || m.FallbackOps != 0 {
					t.Fatalf("%d parts keyed %d, %+v: want %d unkeyed parts, one sharded broadcast, nothing exchanged", len(parts), pd.key, m, p)
				}
			},
		},
		{
			name: "join on the aligned key reuses the partitioning",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 1, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if pd.key != 1 || m.ExchangedRows != 0 || m.ShardedOps != 1 {
					t.Fatalf("keyed %d, exchanged=%d sharded=%d, want key 1 and 0/1", pd.key, m.ExchangedRows, m.ShardedOps)
				}
				checkKeyed(t, parts, 1)
			},
		},
		{
			name: "second join on the same key reuses the first join's output",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, mustJoin(t, opts, on(r, 1, opts), s), ub), mustNaturalJoin(t, r, s, ub)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if pd.key != 1 || m.ExchangedRows != 0 || m.ShardedOps != 2 {
					t.Fatalf("keyed %d, exchanged=%d sharded=%d, want key 1 and 0/2", pd.key, m.ExchangedRows, m.ShardedOps)
				}
				checkKeyed(t, parts, 1)
			},
		},
		{
			name: "a big probe side is probed whole from every part",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), big), mustNaturalJoin(t, r, big)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != 0 || m.BroadcastOps != 1 {
					t.Fatalf("exchanged=%d broadcasts=%d, want 0/1", m.ExchangedRows, m.BroadcastOps)
				}
				checkKeyed(t, parts, 0)
			},
		},
		{
			name: "misaligned key with a small probe side broadcasts and keeps its key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), small), mustNaturalJoin(t, r, small)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 {
					t.Fatalf("broadcasts=%d exchanged=%d, want 1/0", m.BroadcastOps, m.ExchangedRows)
				}
				checkKeyed(t, parts, 0)
			},
		},
		{
			name: "three-way chain on changing keys never collapses to one part",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, mustJoin(t, opts, PipedOf(r, opts), s), u), mustNaturalJoin(t, r, s, u)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.FallbackOps != 0 || m.ShardedOps != 2 || m.ExchangedRows != 0 {
					t.Fatalf("fallback=%d sharded=%d exchanged=%d, want 0/2/0", m.FallbackOps, m.ShardedOps, m.ExchangedRows)
				}
				if len(parts) != p {
					t.Fatalf("chained joins came back in %d parts, want %d", len(parts), p)
				}
			},
		},
		{
			name: "no shared column joins every part with the whole probe side",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), other), mustNaturalJoin(t, r, other)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				checkKeyed(t, parts, 0)
			},
		},
		{
			name: "hot key spreads over every row range",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, PipedOf(hotL, opts), hotR), mustNaturalJoin(t, hotL, hotR)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != 0 || m.ShardedOps != 1 {
					t.Fatalf("exchanged=%d sharded=%d, want 0/1", m.ExchangedRows, m.ShardedOps)
				}
				for k, part := range parts {
					if !slices.Contains(part.Column(0), hot) {
						t.Fatalf("part %d of %d joined no row of the hot key", k, len(parts))
					}
				}
			},
		},
		{
			name: "semijoin over skewed keys keeps its row ranges",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, PipedOf(hotL, opts), hotR), mustSemijoinRel(t, hotL, hotR)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != 0 || len(parts) != p {
					t.Fatalf("exchanged=%d in %d parts, want 0 in %d", m.ExchangedRows, len(parts), p)
				}
				// Part k keeps the surviving rows of row range k, in order.
				n := hotL.Size()
				for k, part := range parts {
					rng := hotL.Gather("L", rowRange(k*n/p, (k+1)*n/p))
					if want := mustSemijoinRel(t, rng, hotR); !slices.Equal(part.Column(1), want.Column(1)) {
						t.Fatalf("part %d is not the semijoin of row range %d", k, k)
					}
				}
			},
		},
		{
			name: "semijoin on the key column keeps the key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, on(r, 1, opts), s), mustSemijoinRel(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 {
					t.Fatalf("broadcasts=%d exchanged=%d, want 1/0", m.BroadcastOps, m.ExchangedRows)
				}
				checkKeyed(t, parts, 1)
			},
		},
		{
			name: "semijoin on a misaligned key broadcasts and keeps its key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, on(r, 0, opts), s), mustSemijoinRel(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 {
					t.Fatalf("broadcasts=%d exchanged=%d, want 1/0", m.BroadcastOps, m.ExchangedRows)
				}
				checkKeyed(t, parts, 0)
			},
		},
		{
			name: "semijoin against an empty relation is empty",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, on(r, 1, opts), relation.New("E", "b", "c")), relation.New("E", "a", "b")
			},
		},
		{
			name: "projection that keeps the key projects part by part",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, on(wide, 1, opts), 1, 2), mustProjectRel(t, wide, 1, 2)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != 0 {
					t.Fatal("projection exchanged although its key was kept")
				}
				checkKeyed(t, parts, 0)
			},
		},
		{
			// Values spread 2^16 apart: the kept ranges multiply past the
			// dense limit, so the hash path runs.
			name: "projection that drops the key exchanges onto its first column",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				w := spread(t, wide, 1<<16)
				return mustProject(t, opts, on(w, 1, opts), 2, 0), mustProjectRel(t, w, 2, 0)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != int64(wide.Size()) || m.DenseProjections != 0 {
					t.Fatalf("exchanged=%d dense=%d, want %d/0", m.ExchangedRows, m.DenseProjections, wide.Size())
				}
				checkKeyed(t, parts, 0)
			},
		},
		{
			name: "4-part pipeline projected without its key dedups in one bitmap, unkeyed",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, on(wide, 1, opts), 2, 0), mustProjectRel(t, wide, 2, 0)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != 0 || m.DenseProjections != 1 {
					t.Fatalf("exchanged=%d dense=%d, want 0/1", m.ExchangedRows, m.DenseProjections)
				}
				if pd.key != -1 || len(parts) != p {
					t.Fatalf("output keyed on %d with %d parts, want %d unkeyed parts", pd.key, len(parts), p)
				}
			},
		},
		{
			name: "an unkeyed sink reopens as parts and broadcasts into a join",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				proj := mustProject(t, opts, on(wide, 1, opts), 2, 0)
				sunk, err := MaterializePiped(context.Background(), opts, proj, "P", true)
				if err != nil {
					t.Fatal(err)
				}
				reopened := PipedOf(sunk, opts)
				if reopened.Parts() != p || reopened.key != -1 {
					t.Fatalf("reopened unkeyed sink as %d parts keyed %d, want %d unkeyed", reopened.Parts(), reopened.key, p)
				}
				return mustJoin(t, opts, reopened, u), mustNaturalJoin(t, mustProjectRel(t, wide, 2, 0), u)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 {
					t.Fatalf("broadcasts=%d exchanged=%d, want 1/0", m.BroadcastOps, m.ExchangedRows)
				}
			},
		},
		{
			name: "projection onto a repeated position renames the repeat",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, on(wide, 0, opts), 0, 0, 1), mustProjectRel(t, wide, 0, 0, 1)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if want := []string{"a", "a_1", "b"}; !slices.Equal(pd.Attrs(), want) {
					t.Fatalf("attrs %v, want %v", pd.Attrs(), want)
				}
			},
		},
		{
			name: "flat projection onto a repeated position renames the repeat",
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, PipedOf(wide, opts), 1, 1), mustProjectRel(t, wide, 1, 1)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if want := []string{"b", "b_1"}; !slices.Equal(pd.Attrs(), want) {
					t.Fatalf("attrs %v, want %v", pd.Attrs(), want)
				}
			},
		},
		{
			name: "one-valued key at P=16 leaves fifteen parts empty",
			opts: Options{Shards: 16},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, PipedOf(hub, opts), 1, 0), mustProjectRel(t, hub, 1, 0)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.ExchangedRows != int64(hub.Size()) || len(parts) != 16 {
					t.Fatalf("exchanged=%d in %d parts, want %d in 16", m.ExchangedRows, len(parts), hub.Size())
				}
				checkKeyed(t, parts, 0)
				empty := 0
				for _, part := range parts {
					if part.Size() == 0 {
						empty++
					}
				}
				if empty != 15 {
					t.Fatalf("%d empty parts under a one-valued key, want 15", empty)
				}
			},
		},
		{
			name: "inputs below MinRows stay in one part",
			opts: Options{Shards: p, MinRows: 10_000},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				pd := mustProject(t, opts, mustSemijoin(t, opts, mustJoin(t, opts, PipedOf(r, opts), s), u), 0, 2)
				return pd, mustProjectRel(t, mustSemijoinRel(t, mustNaturalJoin(t, r, s), u), 0, 2)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.FallbackOps != 3 || m.ShardedOps != 0 || len(parts) != 1 {
					t.Fatalf("fallback=%d sharded=%d output-parts=%d, want 3/0/1", m.FallbackOps, m.ShardedOps, len(parts))
				}
			},
		},
		{
			name: "Shards=1 stays in one part",
			opts: Options{Shards: 1},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, PipedOf(r, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, pd *Piped, parts []*relation.Relation) {
				if m.FallbackOps != 1 || len(parts) != 1 {
					t.Fatalf("fallback=%d output-parts=%d, want 1/1", m.FallbackOps, len(parts))
				}
			},
		},
		{
			name: "a sink reopens as row ranges at the options' count",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				three := &Options{Shards: 3}
				sunk, err := MaterializePiped(context.Background(), three, PipedOf(r, three), "R", false)
				if err != nil {
					t.Fatal(err)
				}
				pd := PipedOf(sunk, opts)
				if pd.Parts() != p {
					t.Fatalf("a sink of 3 parts opened as %d parts under P=%d", pd.Parts(), p)
				}
				return mustJoin(t, opts, pd, s), mustNaturalJoin(t, r, s)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Metrics = Counters.NewSet()
			pd, want := c.build(t, &opts)
			parts := drainParts(t, pd)
			got, err := relation.Concat("out", pd.Attrs(), parts...)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, part := range parts {
				rows += part.Size()
			}
			if !relation.Equal(want, got) || rows != want.Size() {
				t.Fatalf("parts hold %d rows (%d distinct), the relation operators give %d", rows, got.Size(), want.Size())
			}
			if c.check != nil {
				c.check(t, readCounts(opts.Metrics), pd, parts)
			}
		})
	}
}

// rowRange returns the row ids [lo, hi).
func rowRange(lo, hi int) []int32 {
	rows := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, int32(i))
	}
	return rows
}

// TestPipedNilOptions pins what nil options mean: one part per pipeline,
// default batches, no counters — and the same rows.
func TestPipedNilOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRel(rng, "R", []string{"a", "b"}, 100, 10)
	s := randomRel(rng, "S", []string{"b", "c"}, 100, 10)
	if (*Options)(nil).Count() != 1 {
		t.Fatal("nil options reported a part count above 1")
	}
	if (&Options{Shards: 4}).Count() != 4 {
		t.Fatal("Count ignored the explicit shard count")
	}
	pd := mustProject(t, nil, mustSemijoin(t, nil, mustJoin(t, nil, PipedOf(r, nil), s), s), 0, 2)
	if pd.Parts() != 1 {
		t.Fatalf("nil options built %d parts", pd.Parts())
	}
	out, err := MaterializePiped(context.Background(), nil, pd, "out", false)
	if err != nil {
		t.Fatal(err)
	}
	want := mustProjectRel(t, mustSemijoinRel(t, mustNaturalJoin(t, r, s), s), 0, 2)
	if !relation.Equal(want, out) {
		t.Fatalf("nil-options pipeline: %d rows, want %d", out.Size(), want.Size())
	}
}

// TestPipedUnderGovernor runs a four-part join and a hash projection that
// drops the parts' key under a one-byte budget: the projection's exchange
// chunks and the transient sink register with the governor, everything
// cold parks, and the rows still come out right.
func TestPipedUnderGovernor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := spread(t, randomRel(rng, "R", []string{"a", "b"}, 600, 40), 1<<16)
	s := spread(t, randomRel(rng, "S", []string{"b", "c"}, 600, 40), 1<<16)
	g := spill.NewGovernor(1, t.TempDir())
	defer g.Close()
	scope := spill.NewScope()
	defer scope.Close()
	opts := &Options{Shards: 4, BatchSize: 16, Spill: g, Scope: scope, Metrics: Counters.NewSet()}
	pd := mustProject(t, opts, mustJoin(t, opts, PipedOf(r, opts), s), 2, 0)
	out, err := MaterializePiped(context.Background(), opts, pd, "out", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustProjectRel(t, mustNaturalJoin(t, r, s), 2, 0); !relation.Equal(want, out) {
		t.Fatalf("governed join has %d rows, want %d", out.Size(), want.Size())
	}
	if !out.Governed() {
		t.Fatal("transient sink is not registered with the governor")
	}
	if readCounts(opts.Metrics).ExchangedRows == 0 {
		t.Fatal("the projection did not exchange: no chunk was governed")
	}
	if spillGauge(g, "evictions") == 0 {
		t.Fatal("one-byte governor never evicted a pipeline buffer")
	}
}

func TestPipedContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := randomRel(rng, "R", []string{"a", "b"}, 200, 10)
	s := randomRel(rng, "S", []string{"b", "c"}, 200, 10)
	opts := &Options{Shards: 4}
	ctx, cancel := context.WithCancel(context.Background())
	// Built while ctx is live, drained after it is canceled.
	pd, err := JoinPipedStream(ctx, opts, PipedOf(r, opts), s)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := MaterializePiped(ctx, opts, pd, "out", false); err == nil {
		t.Fatal("canceled context did not abort the drain")
	}
	if _, err := JoinPipedStream(ctx, opts, PipedOf(r, opts), s); err == nil {
		t.Fatal("canceled context did not abort the join")
	}
	if _, err := SemijoinPipedStream(ctx, opts, PipedOf(r, opts), s); err == nil {
		t.Fatal("canceled context did not abort the semijoin")
	}
	if _, err := ProjectPiped(ctx, opts, PipedOf(r, opts), []int{0}); err == nil {
		t.Fatal("canceled context did not abort the projection")
	}
}

func TestProjectPipedRejectsOutOfRangeColumn(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(15)), "R", []string{"a", "b"}, 20, 5)
	if _, err := ProjectPiped(context.Background(), nil, PipedOf(r, nil), []int{0, 2}); err == nil {
		t.Fatal("projection onto column 2 of a binary pipeline did not error")
	}
}
