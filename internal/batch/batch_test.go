package batch_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cqbound/internal/batch"
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
		it := batch.Keep(batch.JoinProbe(batch.Scan(l, size, nil), r, pairs, size, nil), keep, attrs)
		got := mustMaterialize(t, it, "out")
		if !relation.Equal(got, want) {
			t.Fatalf("size %d: streamed join %d rows, natural join %d", size, got.Size(), want.Size())
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

func TestBufferedTeeAndReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRel(rng, "R", []string{"a", "b"}, 3000, 500)
	for _, size := range testSizes {
		var governed atomic.Int64
		buf := batch.NewBuffered(batch.Scan(r, size, nil), "buf", size,
			func(*relation.Relation) { governed.Add(1) }, nil)
		// The tee passes the stream through unchanged...
		through := mustMaterialize(t, buf, "through")
		if !relation.Equal(through, r) {
			t.Fatalf("size %d: tee altered the stream", size)
		}
		// ...registering chunks with the governor as they seal, not in one
		// final lump.
		if governed.Load() < 2 {
			t.Fatalf("size %d: %d rows sealed into %d governed chunks, want incremental chunks", size, r.Size(), governed.Load())
		}
		// Replays are independent and may run concurrently.
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replay, err := batch.Materialize(context.Background(), buf.Rewind(), "replay", nil, nil)
				if err != nil || !relation.Equal(replay, r) {
					t.Errorf("size %d: replay diverged (err %v)", size, err)
				}
			}()
		}
		wg.Wait()
		// Rel hands the recorded rows back as one relation.
		flat, err := buf.Rel(context.Background())
		if err != nil || !relation.Equal(flat, r) {
			t.Fatalf("size %d: Rel diverged (err %v)", size, err)
		}
	}
}

// TestBufferedReplayWaitsForDrain pins the blocking contract: a replay
// started before the tee finishes must deliver the full stream, not a
// prefix.
func TestBufferedReplayWaitsForDrain(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(8)), "R", []string{"a"}, 2048, 10_000)
	buf := batch.NewBuffered(batch.Scan(r, 64, nil), "buf", 64, nil, nil)
	done := make(chan *relation.Relation, 1)
	go func() {
		replay, err := batch.Materialize(context.Background(), buf.Rewind(), "replay", nil, nil)
		if err != nil {
			t.Error(err)
		}
		done <- replay
	}()
	if err := buf.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if replay := <-done; !relation.Equal(replay, r) {
		t.Fatalf("early replay saw %d rows, want %d", replay.Size(), r.Size())
	}
}

func TestExchangeRepartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRel(rng, "R", []string{"a", "b"}, 4000, 300)
	for _, p := range []int{2, 5} {
		for _, size := range []int{7, 256} {
			// Feed the exchange from 3 arbitrary slices of the input.
			srcs := make([]batch.Iterator, 0, 3)
			parts := shard.Partition(r, 1, 3)
			for k := 0; k < parts.P(); k++ {
				srcs = append(srcs, batch.Scan(parts.Shard(k), size, nil))
			}
			var routedRows atomic.Int64
			ex := batch.NewExchange(srcs, r.Attrs, 0, p, size, 0, nil,
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
	ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 7, nil)}, r.Attrs, 0, 2, 7, 0,
		func(*relation.Relation) { governed.Add(1) }, nil, nil)
	first := mustMaterialize(t, ex.Part(0), "part")
	if governed.Load() == 0 {
		t.Fatal("no chunk of the lagging part ever registered with the governor")
	}
	if second := mustMaterialize(t, ex.Part(1), "part"); first.Size()+second.Size() != r.Size() {
		t.Fatalf("exchange emitted %d rows, want %d", first.Size()+second.Size(), r.Size())
	}
}

func TestExchangeFlagsHotPart(t *testing.T) {
	r := relation.New("R", "a", "b")
	for i := 0; i < 5000; i++ {
		r.Add("hub", fmt.Sprintf("x%d", i)) // every row routes to one part
	}
	ex := batch.NewExchange([]batch.Iterator{batch.Scan(r, 256, nil)}, r.Attrs, 0, 4, 256, 0.2, nil, nil, nil)
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
	if !ex.Hot(hot) {
		t.Fatal("part holding 100% of the rows was never flagged hot")
	}
	for k := 0; k < 4; k++ {
		if k != hot && ex.Hot(k) {
			t.Fatalf("empty part %d flagged hot", k)
		}
	}
}

// countingIter counts pulls; safeIter serves a relation batch-by-batch
// under a mutex so replicated Grow chains can share it.
type countingIter struct {
	src   batch.Iterator
	calls atomic.Int64
}

func (c *countingIter) Attrs() []string { return c.src.Attrs() }
func (c *countingIter) Next(ctx context.Context) (*batch.Batch, error) {
	c.calls.Add(1)
	return c.src.Next(ctx)
}

type safeIter struct {
	mu  sync.Mutex
	src batch.Iterator
}

func (s *safeIter) Attrs() []string { return s.src.Attrs() }
func (s *safeIter) Next(ctx context.Context) (*batch.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.src.Next(ctx)
	if b != nil {
		// Callers on other goroutines outlive our next Next; hand out a copy.
		cp := relation.NewFromColumns("cp", s.src.Attrs(), func() [][]relation.Value {
			cols := make([][]relation.Value, len(b.Cols))
			for i := range cols {
				cols[i] = append([]relation.Value(nil), b.Cols[i][:b.N]...)
			}
			return cols
		}())
		return &batch.Batch{Cols: func() [][]relation.Value {
			cols := make([][]relation.Value, cp.Arity())
			for i := range cols {
				cols[i] = cp.Column(i)
			}
			return cols
		}(), N: cp.Size()}, nil
	}
	return b, err
}

func TestGrowSplitsWhenHot(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(10)), "R", []string{"a"}, 600, 10_000)
	shared := &safeIter{src: batch.Scan(r, 16, nil)}
	var chains, splits atomic.Int64
	mk := func() batch.Iterator {
		chains.Add(1)
		return shared
	}
	it := batch.Grow(mk, r.Attrs, func() bool { return true }, func() { splits.Add(1) })
	got := mustMaterialize(t, it, "out")
	if !relation.Equal(got, r) {
		t.Fatalf("grown chains lost rows: %d vs %d", got.Size(), r.Size())
	}
	if chains.Load() != 2 || splits.Load() != 1 {
		t.Fatalf("hot source grew %d chains (%d splits), want 2 (1)", chains.Load(), splits.Load())
	}
}

func TestGrowStaysSingleWhenCold(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(11)), "R", []string{"a"}, 200, 10_000)
	var chains atomic.Int64
	mk := func() batch.Iterator {
		chains.Add(1)
		return batch.Scan(r, 32, nil)
	}
	it := batch.Grow(mk, r.Attrs, func() bool { return false }, nil)
	got := mustMaterialize(t, it, "out")
	if !relation.Equal(got, r) || chains.Load() != 1 {
		t.Fatalf("cold source: %d rows from %d chains, want %d from 1", got.Size(), chains.Load(), r.Size())
	}
}

func TestFanMergesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	halves := []*relation.Relation{
		randomRel(rng, "A", []string{"a", "b"}, 700, 10_000),
		randomRel(rng, "B", []string{"a", "b"}, 900, 10_000),
		randomRel(rng, "C", []string{"a", "b"}, 1, 10_000),
	}
	mks := make([]func() batch.Iterator, len(halves))
	for i, h := range halves {
		h := h
		mks[i] = func() batch.Iterator { return batch.Scan(h, 64, nil) }
	}
	got := mustMaterialize(t, batch.Fan(mks, halves[0].Attrs), "out")
	want := relation.New("want", "a", "b")
	for _, h := range halves {
		for i := 0; i < h.Size(); i++ {
			want.Insert(h.Row(i))
		}
	}
	if !relation.Equal(got, want) {
		t.Fatalf("fan merged %d rows, want %d", got.Size(), want.Size())
	}
}

// panicAt serves its source's batches and panics on pull number at.
type panicAt struct {
	src   batch.Iterator
	at    int
	pulls int
}

func (p *panicAt) Attrs() []string { return p.src.Attrs() }
func (p *panicAt) Next(ctx context.Context) (*batch.Batch, error) {
	p.pulls++
	if p.pulls == p.at {
		panic("chain exploded")
	}
	return p.src.Next(ctx)
}

// endless serves the same batch until its context is canceled.
type endless struct{ b batch.Batch }

func (e *endless) Attrs() []string { return []string{"a"} }
func (e *endless) Next(ctx context.Context) (*batch.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &e.b, nil
}

// TestFanRepanicsOnConsumer: a panic in one of Fan's chains surfaces on
// the goroutine calling Next, with the original value and the chain's
// stack, instead of killing the process from a bare goroutine. The other
// chain never ends on its own, so the panic surfacing at all shows the
// siblings were stopped.
func TestFanRepanicsOnConsumer(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(14)), "R", []string{"a"}, 100, 10_000)
	mks := []func() batch.Iterator{
		func() batch.Iterator { return &panicAt{src: batch.Scan(r, 8, nil), at: 3} },
		func() batch.Iterator {
			return &endless{b: batch.Batch{Cols: [][]relation.Value{{relation.V("x")}}, N: 1}}
		},
	}
	it := batch.Fan(mks, r.Attrs)
	var got any
	pulled := 0
	func() {
		defer func() { got = recover() }()
		for {
			b, err := it.Next(context.Background())
			if err != nil || b == nil {
				t.Errorf("Fan ended without the panic: %v", err)
				return
			}
			pulled++
		}
	}()
	if got == nil {
		t.Fatal("chain panic was swallowed")
	}
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "chain exploded") || !strings.Contains(msg, "batch_test.go") {
		t.Fatalf("re-panic lost the original value or the chain's stack:\n%s", msg)
	}
	if pulled == 0 {
		t.Fatal("consumer saw no batch before the panic")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := &batch.Metrics{}
	r := randomRel(rand.New(rand.NewSource(13)), "R", []string{"a", "b"}, 100, 50)
	if _, err := batch.Materialize(context.Background(), batch.Scan(r, 16, m), "out", nil, m); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.BatchesProduced == 0 || st.RowsStreamed != int64(r.Size()) {
		t.Fatalf("stats after a scan+materialize: %+v", st)
	}
	m.Reset()
	if st := m.Snapshot(); st != (batch.Stats{}) {
		t.Fatalf("reset left counters: %+v", st)
	}
}
