package shard

// Tests for the piped operators' routing ladder — aligned reuse,
// broadcast, exchange, fallback — one table row per decision.
// Every row drains its pipelines and compares against the single-shard
// relation operators, which are the semantics of record.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// on opens r as pipelines partitioned on column key at the options' count:
// one scan per shard of r's memoized partition.
func on(r *relation.Relation, key int, opts *Options) *Piped {
	pd := flat(r, opts)
	shards := Partition(r, key, opts.Count())
	if len(shards) < 2 {
		return pd
	}
	pd.key, pd.parts = key, make([]batch.Iterator, len(shards))
	for k, s := range shards {
		pd.parts[k] = batch.Scan(s, opts.batchSize(), opts.batchMetrics())
	}
	return pd
}

// flat opens r as one unpartitioned pipeline.
func flat(r *relation.Relation, opts *Options) *Piped {
	return PipedOf(StreamOf(r), opts)
}

func mustJoin(t *testing.T, opts *Options, pd *Piped, next *relation.Relation) *Piped {
	t.Helper()
	out, err := JoinPipedStream(context.Background(), opts, pd, next, false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustSemijoin(t *testing.T, opts *Options, pd *Piped, next *relation.Relation) *Piped {
	t.Helper()
	out, err := SemijoinPipedStream(context.Background(), opts, pd, next, false)
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

// checkKeyed asserts the sunk stream holds wantParts parts keyed on
// wantKey: its offsets ascend from 0 to the relation's size, and every row
// in part k's range has a key value that hashes to k — the contract the
// next pipeline's aligned reuse relies on.
func checkKeyed(t *testing.T, st Stream, wantKey, wantParts int) {
	t.Helper()
	if st.key != wantKey || len(st.offs)-1 != wantParts {
		t.Fatalf("output keyed on %d with %d parts, want key %d with %d parts", st.key, len(st.offs)-1, wantKey, wantParts)
	}
	if st.offs[0] != 0 || st.offs[wantParts] != st.rel.Size() {
		t.Fatalf("offsets %v do not cover the %d rows", st.offs, st.rel.Size())
	}
	for k := 0; k < wantParts; k++ {
		if st.offs[k+1] < st.offs[k] {
			t.Fatalf("offsets %v descend at part %d", st.offs, k)
		}
		for i := st.offs[k]; i < st.offs[k+1]; i++ {
			if ShardOf(st.rel.At(i, wantKey), wantParts) != k {
				t.Fatalf("row %d of part %d violates the declared key", i, k)
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

// routeCounts is one run's routing counters, read from its Set.
type routeCounts struct {
	ShardedOps, FallbackOps, ReusedRows, ExchangedRows, BroadcastOps, DenseProjections int64
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
	return routeCounts{m.Load(shardedOps), m.Load(fallbackOps), m.Load(reusedRows), m.Load(exchangedRows),
		m.Load(broadcastOps), m.Load(denseProjections)}
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
	if big.Size() <= streamBroadcastRows {
		t.Fatalf("big side has %d rows, need more than the broadcast bound %d", big.Size(), streamBroadcastRows)
	}
	wide := randomRel(rng, "W", []string{"a", "b", "c"}, 500, 8)
	other := randomRel(rng, "O", []string{"c", "d"}, 20, 5)
	hotL := zipfRel(rng, "L", []string{"k", "x"}, 600, 0.5, 10)
	hotR := zipfRel(rng, "H", []string{"k", "y"}, 200, 0.3, 10)
	hub, spokes := relation.New("R", "a", "b"), relation.New("S", "b", "c")
	for i := 0; i < 40; i++ {
		hub.Add(fmt.Sprintf("x%d", i), "hub")
		spokes.Add("hub", fmt.Sprintf("z%d", i%4))
	}

	cases := []struct {
		name string
		opts Options // Metrics is filled in per run
		// build assembles the pipelines under test and the expected rows.
		build func(t *testing.T, opts *Options) (*Piped, *relation.Relation)
		// check sees the routing counters and the drained output.
		check func(t *testing.T, m routeCounts, out Stream)
	}{
		{
			name: "join on the aligned key reuses the partitioning",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 1, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ReusedRows != int64(r.Size()) || m.ExchangedRows != 0 || m.ShardedOps != 1 {
					t.Fatalf("reused=%d exchanged=%d sharded=%d, want %d/0/1", m.ReusedRows, m.ExchangedRows, m.ShardedOps, r.Size())
				}
				checkKeyed(t, out, 1, p)
			},
		},
		{
			name: "second join on the same key reuses the first join's output",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, mustJoin(t, opts, flat(r, opts), s), ub), mustNaturalJoin(t, r, s, ub)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				first := mustNaturalJoin(t, r, s).Size()
				if m.ReusedRows != int64(first) || m.ExchangedRows != int64(r.Size()) {
					t.Fatalf("reused=%d exchanged=%d, want %d (|R⋈S|) and %d (|R|)", m.ReusedRows, m.ExchangedRows, first, r.Size())
				}
			},
		},
		{
			name: "flat pipeline is exchanged onto the join key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, flat(r, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != int64(r.Size()) || m.ReusedRows != 0 || m.FallbackOps != 0 {
					t.Fatalf("exchanged=%d reused=%d fallback=%d, want %d/0/0", m.ExchangedRows, m.ReusedRows, m.FallbackOps, r.Size())
				}
				checkKeyed(t, out, 1, p)
			},
		},
		{
			name: "misaligned key with a big probe side exchanges",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), big), mustNaturalJoin(t, r, big)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != int64(r.Size()) || m.BroadcastOps != 0 {
					t.Fatalf("exchanged=%d broadcasts=%d, want %d/0", m.ExchangedRows, m.BroadcastOps, r.Size())
				}
				checkKeyed(t, out, 1, p)
			},
		},
		{
			name: "misaligned key with a small probe side broadcasts and keeps its key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), small), mustNaturalJoin(t, r, small)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 || m.ReusedRows != int64(r.Size()) {
					t.Fatalf("broadcasts=%d exchanged=%d reused=%d, want 1/0/%d", m.BroadcastOps, m.ExchangedRows, m.ReusedRows, r.Size())
				}
				checkKeyed(t, out, 0, p)
			},
		},
		{
			name: "three-way chain on changing keys never collapses to one part",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, mustJoin(t, opts, flat(r, opts), s), u), mustNaturalJoin(t, r, s, u)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.FallbackOps != 0 || m.ShardedOps != 2 {
					t.Fatalf("fallback=%d sharded=%d, want 0/2", m.FallbackOps, m.ShardedOps)
				}
				if len(out.offs)-1 != p {
					t.Fatalf("chained joins came back in %d parts, want %d", len(out.offs)-1, p)
				}
			},
		},
		{
			name: "no shared column joins every part with the whole probe side",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, on(r, 0, opts), other), mustNaturalJoin(t, r, other)
			},
			check: func(t *testing.T, m routeCounts, out Stream) { checkKeyed(t, out, 0, p) },
		},
		{
			name: "hot probe-side shard joins in one chain per part",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, flat(hotL, opts), hotR), mustNaturalJoin(t, hotL, hotR)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != int64(hotL.Size()) || m.ShardedOps != 1 {
					t.Fatalf("exchanged=%d sharded=%d, want %d/1", m.ExchangedRows, m.ShardedOps, hotL.Size())
				}
				checkKeyed(t, out, 0, p)
			},
		},
		{
			name: "semijoin over skewed keys keeps the exchanged partitioning",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, flat(hotL, opts), hotR), mustSemijoinRel(t, hotL, hotR)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != int64(hotL.Size()) {
					t.Fatalf("exchanged=%d, want %d", m.ExchangedRows, hotL.Size())
				}
				checkKeyed(t, out, 0, p)
			},
		},
		{
			name: "semijoin on the aligned key probes shard against shard",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, on(r, 1, opts), s), mustSemijoinRel(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ReusedRows != int64(r.Size()) || m.ExchangedRows != 0 || m.BroadcastOps != 0 {
					t.Fatalf("reused=%d exchanged=%d broadcasts=%d, want %d/0/0", m.ReusedRows, m.ExchangedRows, m.BroadcastOps, r.Size())
				}
				checkKeyed(t, out, 1, p)
			},
		},
		{
			name: "semijoin on a misaligned key broadcasts and keeps its key",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustSemijoin(t, opts, on(r, 0, opts), s), mustSemijoinRel(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.BroadcastOps != 1 || m.ExchangedRows != 0 {
					t.Fatalf("broadcasts=%d exchanged=%d, want 1/0", m.BroadcastOps, m.ExchangedRows)
				}
				checkKeyed(t, out, 0, p)
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
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != 0 {
					t.Fatal("projection exchanged although its key was kept")
				}
				checkKeyed(t, out, 0, p)
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
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != int64(wide.Size()) || m.DenseProjections != 0 {
					t.Fatalf("exchanged=%d dense=%d, want %d/0", m.ExchangedRows, m.DenseProjections, wide.Size())
				}
				checkKeyed(t, out, 0, p)
			},
		},
		{
			name: "4-part pipeline projected without its key dedups in one bitmap, unkeyed",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, on(wide, 1, opts), 2, 0), mustProjectRel(t, wide, 2, 0)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.ExchangedRows != 0 || m.DenseProjections != 1 {
					t.Fatalf("exchanged=%d dense=%d, want 0/1", m.ExchangedRows, m.DenseProjections)
				}
				if out.key != -1 || len(out.offs)-1 != p {
					t.Fatalf("output keyed on %d with %d parts, want %d unkeyed parts", out.key, len(out.offs)-1, p)
				}
				// Every row came out of exactly one part.
				if rows := out.offs[p]; rows != mustProjectRel(t, wide, 2, 0).Size() {
					t.Fatalf("parts hold %d rows, ProjectIdx %d", rows, mustProjectRel(t, wide, 2, 0).Size())
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
			check: func(t *testing.T, m routeCounts, out Stream) {
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
			check: func(t *testing.T, m routeCounts, out Stream) {
				if want := []string{"a", "a_1", "b"}; !slices.Equal(out.Rel().Attrs, want) {
					t.Fatalf("attrs %v, want %v", out.Rel().Attrs, want)
				}
			},
		},
		{
			name: "flat projection onto a repeated position renames the repeat",
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustProject(t, opts, flat(wide, opts), 1, 1), mustProjectRel(t, wide, 1, 1)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if want := []string{"b", "b_1"}; !slices.Equal(out.Rel().Attrs, want) {
					t.Fatalf("attrs %v, want %v", out.Rel().Attrs, want)
				}
			},
		},
		{
			name: "one-valued key at P=16 leaves fifteen parts empty",
			opts: Options{Shards: 16},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, flat(hub, opts), spokes), mustNaturalJoin(t, hub, spokes)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				checkKeyed(t, out, 1, 16)
				empty := 0
				for k := 0; k < 16; k++ {
					if out.offs[k+1] == out.offs[k] {
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
				pd := mustProject(t, opts, mustSemijoin(t, opts, mustJoin(t, opts, flat(r, opts), s), u), 0, 2)
				return pd, mustProjectRel(t, mustSemijoinRel(t, mustNaturalJoin(t, r, s), u), 0, 2)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.FallbackOps != 3 || m.ShardedOps != 0 || len(out.offs) != 2 {
					t.Fatalf("fallback=%d sharded=%d output-parts=%d, want 3/0/1", m.FallbackOps, m.ShardedOps, len(out.offs)-1)
				}
			},
		},
		{
			name: "Shards=1 stays in one part",
			opts: Options{Shards: 1},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				return mustJoin(t, opts, flat(r, opts), s), mustNaturalJoin(t, r, s)
			},
			check: func(t *testing.T, m routeCounts, out Stream) {
				if m.FallbackOps != 1 || len(out.offs) != 2 {
					t.Fatalf("fallback=%d output-parts=%d, want 1/1", m.FallbackOps, len(out.offs)-1)
				}
			},
		},
		{
			name: "a view partitioned at another count is scanned flat",
			opts: Options{Shards: p},
			build: func(t *testing.T, opts *Options) (*Piped, *relation.Relation) {
				three := &Options{Shards: 3}
				sunk, err := MaterializePiped(context.Background(), three, on(r, 1, three), "R", false)
				if err != nil {
					t.Fatal(err)
				}
				pd := PipedOf(sunk, opts)
				if pd.Parts() != 1 || len(sunk.offs) != 4 {
					t.Fatalf("3-part sink opened as %d parts under P=%d", pd.Parts(), p)
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
			out, err := MaterializePiped(context.Background(), &opts, pd, "out", false)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Rel(); !relation.Equal(want, got) {
				t.Fatalf("piped result has %d rows, the relation operators give %d", got.Size(), want.Size())
			}
			if c.check != nil {
				c.check(t, readCounts(opts.Metrics), out)
			}
		})
	}
}

// TestPipedNilOptions pins what nil options mean: one part per pipeline,
// default batches, no counters — and the same rows.
func TestPipedNilOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomRel(rng, "R", []string{"a", "b"}, 100, 10)
	s := randomRel(rng, "S", []string{"b", "c"}, 100, 10)
	if (*Options)(nil).Count() != 1 || (*Options)(nil).active(1_000_000) {
		t.Fatal("nil options reported a partition count above 1")
	}
	if (&Options{Shards: 4}).Count() != 4 {
		t.Fatal("Count ignored the explicit shard count")
	}
	pd := mustProject(t, nil, mustSemijoin(t, nil, mustJoin(t, nil, flat(r, nil), s), s), 0, 2)
	if pd.Parts() != 1 {
		t.Fatalf("nil options built %d parts", pd.Parts())
	}
	out, err := MaterializePiped(context.Background(), nil, pd, "out", false)
	if err != nil {
		t.Fatal(err)
	}
	want := mustProjectRel(t, mustSemijoinRel(t, mustNaturalJoin(t, r, s), s), 0, 2)
	if len(out.offs) != 2 || !relation.Equal(want, out.Rel()) {
		t.Fatalf("nil-options pipeline: %d rows in %d parts, want %d in one", out.Rel().Size(), len(out.offs)-1, want.Size())
	}
}

// TestPipedUnderGovernor runs an exchanged, partition-parallel join under a
// one-byte budget: exchange chunks, the probe side's partitions and the
// transient sink all register with the governor, everything cold parks, and
// the rows still come out right.
func TestPipedUnderGovernor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := randomRel(rng, "R", []string{"a", "b"}, 600, 40)
	s := randomRel(rng, "S", []string{"b", "c"}, 600, 40)
	g := spill.NewGovernor(1, t.TempDir())
	defer g.Close()
	scope := spill.NewScope()
	defer scope.Close()
	opts := &Options{Shards: 4, BatchSize: 16, Spill: g, Scope: scope, Metrics: Counters.NewSet()}
	out, err := MaterializePiped(context.Background(), opts, mustJoin(t, opts, flat(r, opts), s), "out", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustNaturalJoin(t, r, s); !relation.Equal(want, out.Rel()) {
		t.Fatalf("governed join has %d rows, want %d", out.Rel().Size(), want.Size())
	}
	if !out.Rel().Governed() {
		t.Fatal("transient sink is not registered with the governor")
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
	pd, err := JoinPipedStream(ctx, opts, flat(r, opts), s, false)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := MaterializePiped(ctx, opts, pd, "out", false); err == nil {
		t.Fatal("canceled context did not abort the drain")
	}
	if _, err := JoinPipedStream(ctx, opts, flat(r, opts), s, false); err == nil {
		t.Fatal("canceled context did not abort the join")
	}
	if _, err := SemijoinPipedStream(ctx, opts, flat(r, opts), s, false); err == nil {
		t.Fatal("canceled context did not abort the semijoin")
	}
	if _, err := ProjectPiped(ctx, opts, flat(r, opts), []int{0}); err == nil {
		t.Fatal("canceled context did not abort the projection")
	}
}

func TestProjectPipedRejectsOutOfRangeColumn(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(15)), "R", []string{"a", "b"}, 20, 5)
	if _, err := ProjectPiped(context.Background(), nil, flat(r, nil), []int{0, 2}); err == nil {
		t.Fatal("projection onto column 2 of a binary pipeline did not error")
	}
}

// TestOneColumnExchangeBuildsNoStatistics pins that exchanging a flat
// pipeline onto the one column it shares with next reads none of next's
// statistics: there is nothing to choose, and the statistics scan every
// column of next. A fresh 10 000-row next must still have them unbuilt
// after the join and after the semijoin, which shows as the allocations of
// a first DistinctCount.
func TestOneColumnExchangeBuildsNoStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	r := randomRel(rng, "R", []string{"a", "b"}, 3000, 5000)
	for _, op := range []string{"join", "semijoin"} {
		next := randomRel(rng, "S", []string{"b", "c"}, 10000, 5000)
		opts := &Options{Shards: 4, Metrics: Counters.NewSet()}
		var pd *Piped
		var want *relation.Relation
		if op == "join" {
			pd, want = mustJoin(t, opts, flat(r, opts), next), mustNaturalJoin(t, r, next)
		} else {
			pd, want = mustSemijoin(t, opts, flat(r, opts), next), mustSemijoinRel(t, r, next)
		}
		out, err := MaterializePiped(context.Background(), opts, pd, "out", false)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(out.Rel(), want) {
			t.Fatalf("%s: %d rows, want %d", op, out.Rel().Size(), want.Size())
		}
		if readCounts(opts.Metrics).ExchangedRows == 0 {
			t.Fatalf("%s: the pipeline was not exchanged", op)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next.DistinctCount(0)
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			t.Errorf("%s: routing on next's one shared column built next's statistics", op)
		}
	}
}
