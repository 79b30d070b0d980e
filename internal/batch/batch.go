package batch

// Column batches, the iterator contract, and the single-input pipeline
// stages (scan, join probe, semijoin, projection). The sink lives in
// sink.go, the multi-input exchange in exchange.go; package documentation
// in doc.go.

import (
	"context"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
)

// DefaultSize is the batch row count used when a caller leaves the size
// unset: large enough that per-batch overhead (interface calls, context
// checks) amortizes to nothing, small enough that one batch per pipeline
// stage stays cache-resident.
const DefaultSize = 1024

// Batch is a fixed-capacity slice of rows in columnar layout: Cols[c][i] is
// row i's value in column c, every column holding exactly N values. Columns
// may alias the storage of a relation or of an upstream batch — batches are
// views, not owners — and N may be smaller than the pipeline's batch size
// (operators emit short batches at chunk and stream boundaries rather than
// stalling to fill).
type Batch struct {
	Cols [][]relation.Value
	N    int
}

// Iterator is the pull contract of a pipeline stage: Next returns the next
// batch, or (nil, nil) at end of stream. The returned batch and its columns
// are owned by the iterator and valid only until the following Next call —
// operators reuse their output buffers — so a consumer that retains values
// across pulls must copy them out. Attrs names the columns of every batch
// the iterator produces. Iterators are single-consumer unless documented
// otherwise (Exchange parts are the concurrent-safe exception).
type Iterator interface {
	Attrs() []string
	Next(ctx context.Context) (*Batch, error)
}

// Counters is the family of the pipelines' counters (registry names
// stream_*). Operators take a Set of it, which one Engine shares across
// concurrent evaluations; a nil Set counts nothing.
var (
	Counters = counter.NewFamily("stream")
	batches  = Counters.Counter("batches", "batches emitted by pipeline stages")
	rowsOut  = Counters.Counter("rows",
		"rows emitted by pipeline stages, counted once per stage passed")
	bufferedFallbacks = Counters.Counter("buffered_fallbacks",
		"pipelines flattened into one relation after all (no stage does so; always zero)")
	bytesNeverMaterialized = Counters.Counter("bytes_never_materialized",
		"column bytes stages emitted minus those written into relations: the allocation pipelining saved")
)

// emitted records one batch of rows×cols values leaving a stage.
func emitted(m *counter.Set, rows, cols int) {
	if m == nil || rows == 0 {
		return
	}
	m.Add(batches, 1)
	m.Add(rowsOut, int64(rows))
	m.Add(bytesNeverMaterialized, int64(rows)*int64(cols)*4)
}

// materialized records rows×cols values, emitted by an earlier stage,
// written into a relation.
func materialized(m *counter.Set, rows, cols int) {
	m.Add(bytesNeverMaterialized, -int64(rows)*int64(cols)*4)
}

// sizeOr returns size, or DefaultSize when size is unset.
func sizeOr(size int) int {
	if size <= 0 {
		return DefaultSize
	}
	return size
}

// columns allocates arity columns of rows values each, carved from one
// pointer-free slab: one allocation whatever the arity, written by index
// with no write barrier. Each column's capacity ends where the next one
// begins, so an append to it reallocates instead of overwriting.
func columns(arity, rows int) [][]relation.Value {
	slab := make([]relation.Value, arity*rows)
	cols := make([][]relation.Value, arity)
	for c := range cols {
		cols[c] = slab[c*rows : (c+1)*rows : (c+1)*rows]
	}
	return cols
}

// window returns rows [lo, hi) of every column as new column headers, each
// capped at hi: a relation built on the window may append to its columns
// without reaching rows outside it.
func window(cols [][]relation.Value, lo, hi int) [][]relation.Value {
	out := make([][]relation.Value, len(cols))
	for c := range cols {
		out[c] = cols[c][lo:hi:hi]
	}
	return out
}

// block is a fixed-capacity run of rows in columns from columns, filled
// from the front.
type block struct {
	cols [][]relation.Value
	cap  int // rows the columns hold
	n    int // rows written
}

func newBlock(arity, rows int) block {
	return block{cols: columns(arity, rows), cap: rows}
}

// Scan streams a relation as batches of up to size rows. Batches alias the
// relation's column storage (zero copy); under a spill governor the source
// is pinned only across each individual Next, so a parked relation streams
// out without being held resident whole.
func Scan(r *relation.Relation, size int, m *counter.Set) Iterator {
	return ScanRange(r, 0, r.Size(), size, m)
}

// ScanRange is Scan over rows [lo, hi) of r: one part of a relation a
// multi-part sink built (MaterializeParts' offsets).
func ScanRange(r *relation.Relation, lo, hi, size int, m *counter.Set) Iterator {
	return &scanIter{r: r, size: sizeOr(size), pos: lo, end: hi, m: m}
}

type scanIter struct {
	r        *relation.Relation
	size     int
	pos, end int
	m        *counter.Set
	out      Batch
}

func (s *scanIter) Attrs() []string { return s.r.Attrs }

func (s *scanIter) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := s.end - s.pos
	if n <= 0 {
		return nil, nil
	}
	if n > s.size {
		n = s.size
	}
	// Pin across the column reads so a governed relation reloads at most
	// once per batch; the returned snapshots stay valid after Unpin.
	s.r.Pin()
	arity := s.r.Arity()
	if s.out.Cols == nil {
		s.out.Cols = make([][]relation.Value, arity)
	}
	for c := 0; c < arity; c++ {
		s.out.Cols[c] = s.r.Column(c)[s.pos : s.pos+n]
	}
	s.r.Unpin()
	s.out.N = n
	s.pos += n
	emitted(s.m, n, arity)
	return &s.out, nil
}

// JoinProbe streams the hash join of a left pipeline against a relation:
// each left batch probes right's memoized index on the given column pairs
// (left position, right position). keep names the output columns by their
// position in the joined pair of rows — left's columns, then right's — and
// none keeps every column; relation.NaturalJoinSchema's keep, which drops
// right's copies of the join columns, makes it the natural join. Empty
// pairs means a cross product. The right side is the buffered operand: it
// must be a relation because every left row may match anywhere in it.
//
// A batch is built a column at a time: the probe collects up to selRows
// matches' left and right rows into two selection vectors, a posting
// list's run of matches in one copy, then gathers each kept column of
// them in one loop. A column keep drops is never written.
func JoinProbe(left Iterator, right *relation.Relation, pairs [][2]int, size int, m *counter.Set, keep ...int) Iterator {
	lattrs := left.Attrs()
	if len(keep) == 0 {
		keep = make([]int, len(lattrs)+right.Arity())
		for c := range keep {
			keep[c] = c
		}
	}
	attrs := make([]string, len(keep))
	for i, c := range keep {
		if c < len(lattrs) {
			attrs[i] = lattrs[c]
		} else {
			attrs[i] = right.Attrs[c-len(lattrs)]
		}
	}
	return &joinIter{left: left, right: right, pairs: pairs, keep: keep, lar: len(lattrs), attrs: attrs, size: sizeOr(size), m: m}
}

// selRows is the length of the selection vectors a stage gathers rows
// through: long enough that a column loop amortizes its set-up, short
// enough that the vectors cost a few KiB per stage whatever the batch size.
const selRows = 256

type joinIter struct {
	left  Iterator
	right *relation.Relation
	pairs [][2]int
	keep  []int
	lar   int // left's arity: keep positions from it on are right's columns
	attrs []string
	size  int
	m     *counter.Set

	started bool
	done    bool
	ix      *relation.Index // nil for cross products
	lpos    []int           // left key positions, one per pair
	all     []int32         // every right row: a cross product's matches
	rcols   [][]relation.Value

	cur     *Batch  // current left batch
	row     int     // next left row to probe
	matches []int32 // right rows matching cur[row-1] not yet selected
	mpos    int

	// The i-th selected row joins cur's row lsel[i] with right's row
	// rsel[i].
	lsel, rsel []int32
	dst        [][]relation.Value // output columns at full batch size
	out        Batch
}

func (j *joinIter) Attrs() []string { return j.attrs }

// start builds the probe state on first pull: the memoized index over the
// right side's join columns (or, for a cross product, the one match list
// every left row shares) and a column snapshot to gather matches from.
func (j *joinIter) start() {
	j.started = true
	if j.right.Size() == 0 {
		j.done = true // join with an empty side is empty; never pull left
		return
	}
	if len(j.pairs) > 0 {
		cols := make([]int, len(j.pairs))
		j.lpos = make([]int, len(j.pairs))
		for i, p := range j.pairs {
			j.lpos[i], cols[i] = p[0], p[1]
		}
		j.ix = j.right.Index(cols...)
	} else {
		j.all = allRows(j.right.Size())
	}
	j.right.Pin()
	j.rcols = make([][]relation.Value, j.right.Arity())
	for c := range j.rcols {
		j.rcols[c] = j.right.Column(c)
	}
	j.right.Unpin()
	h := min(j.size, selRows)
	sel := make([]int32, 2*h)
	j.lsel, j.rsel = sel[:h:h], sel[h:]
	j.dst = columns(len(j.keep), j.size)
	j.out.Cols = make([][]relation.Value, len(j.keep))
}

func (j *joinIter) Next(ctx context.Context) (*Batch, error) {
	if !j.started {
		j.start()
	}
	if j.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// n rows are in the batch; the last s of them are selected but not
	// yet gathered.
	n, s := 0, 0
	for n < j.size {
		if s == len(j.lsel) {
			j.gather(n-s, s)
			s = 0
		}
		// Select the current left row's pending matches, a run at a time.
		if k := min(len(j.matches)-j.mpos, j.size-n, len(j.lsel)-s); k > 0 {
			copy(j.rsel[s:s+k], j.matches[j.mpos:])
			lsel, lrow := j.lsel[s:s+k], int32(j.row-1)
			for i := range lsel {
				lsel[i] = lrow
			}
			j.mpos += k
			n += k
			s += k
			continue
		}
		// Advance to the next left row, pulling a fresh batch when the
		// current one is exhausted — after gathering the rows selected
		// from it, which the pull may overwrite.
		if j.cur == nil || j.row >= j.cur.N {
			j.gather(n-s, s)
			s = 0
			b, err := j.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.done = true
				break
			}
			j.cur, j.row = b, 0
		}
		if j.ix == nil {
			j.matches, j.mpos = j.all, 0 // cross product: every right row matches
			j.row++
			continue
		}
		// Probe left rows until one has several matches, selecting a single
		// match (a key lookup's) in place.
		for j.row < j.cur.N && n < j.size && s < len(j.lsel) {
			ms := j.ix.Rows(j.cur.Cols, j.lpos, j.row)
			j.row++
			if len(ms) > 1 {
				j.matches, j.mpos = ms, 0
				break
			}
			if len(ms) == 1 {
				j.lsel[s], j.rsel[s] = int32(j.row-1), ms[0]
				n++
				s++
			}
		}
	}
	j.gather(n-s, s)
	if n == 0 {
		return nil, nil
	}
	for c := range j.dst {
		j.out.Cols[c] = j.dst[c][:n]
	}
	j.out.N = n
	emitted(j.m, n, len(j.keep))
	return &j.out, nil
}

// gather writes the first s selected rows into every kept column, as
// output rows [at, at+s), from the current left batch and from right.
func (j *joinIter) gather(at, s int) {
	if s == 0 {
		return
	}
	lsel, rsel := j.lsel[:s], j.rsel[:s]
	for k, c := range j.keep {
		dst := j.dst[k][at : at+s][:len(lsel)]
		if c < j.lar {
			src := j.cur.Cols[c]
			for i, r := range lsel {
				dst[i] = src[r]
			}
		} else {
			src := j.rcols[c-j.lar]
			for i, r := range rsel {
				dst[i] = src[r]
			}
		}
	}
}

// allRows returns [0..n) as probe-match indices (cross products).
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// Semijoin streams left ⋉ right: left rows with at least one match in
// right on the given column pairs (left position, right position) pass
// through; the rest are dropped. With no pairs the stage degrades like
// relation.Semijoin: everything passes unless right is empty, in which
// case the left pipeline is never pulled. Right is the buffered operand
// (a surviving row may match anywhere in it).
func Semijoin(left Iterator, right *relation.Relation, lCols, rCols []int, m *counter.Set) Iterator {
	return &semiIter{left: left, right: right, lCols: lCols, rCols: rCols, m: m}
}

type semiIter struct {
	left         Iterator
	right        *relation.Relation
	lCols, rCols []int
	m            *counter.Set

	started bool
	done    bool
	ix      *relation.Index

	dst block // output columns, as long as the longest input batch
	out Batch
}

func (s *semiIter) Attrs() []string { return s.left.Attrs() }

func (s *semiIter) Next(ctx context.Context) (*Batch, error) {
	if !s.started {
		s.started = true
		if len(s.lCols) > 0 {
			if s.right.Size() == 0 {
				s.done = true // nothing can match; never pull left
			} else {
				s.ix = s.right.Index(s.rCols...)
			}
		} else if s.right.Size() == 0 {
			s.done = true
		}
	}
	if s.done {
		return nil, nil
	}
	for {
		b, err := s.left.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.done = true
			return nil, nil
		}
		if s.ix == nil {
			// No shared columns and right nonempty: pass through.
			emitted(s.m, b.N, len(b.Cols))
			return b, nil
		}
		if s.dst.cols == nil || s.dst.cap < b.N {
			s.dst = newBlock(len(b.Cols), b.N)
			s.out.Cols = make([][]relation.Value, len(b.Cols))
		}
		dst := s.dst.cols
		n := 0
		for i := 0; i < b.N; i++ {
			if !s.ix.Has(b.Cols, s.lCols, i) {
				continue
			}
			for c, col := range b.Cols {
				dst[c][n] = col[i]
			}
			n++
		}
		if n == 0 {
			continue // whole batch filtered; pull the next one
		}
		for c := range dst {
			s.out.Cols[c] = dst[c][:n]
		}
		s.out.N = n
		emitted(s.m, n, len(b.Cols))
		return &s.out, nil
	}
}

// keepIter is the stateless column projection Project runs when it keeps
// every input column: each output batch reslices the input batch's columns
// at the kept positions (repeats allowed), renamed to attrs. Zero copy and
// duplicate-preserving.
type keepIter struct {
	in    Iterator
	keep  []int
	attrs []string
	m     *counter.Set
	out   Batch
}

func (k *keepIter) Attrs() []string { return k.attrs }

func (k *keepIter) Next(ctx context.Context) (*Batch, error) {
	b, err := k.in.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if k.out.Cols == nil {
		k.out.Cols = make([][]relation.Value, len(k.keep))
	}
	for i, c := range k.keep {
		k.out.Cols[i] = b.Cols[c][:b.N]
	}
	k.out.N = b.N
	emitted(k.m, b.N, len(k.keep))
	return &k.out, nil
}

// Project is the streaming duplicate-eliminating projection onto idx
// (repeats allowed): the first occurrence of each projected row passes,
// later duplicates are dropped. A projection that keeps every input column
// cannot create duplicates — pipeline rows are distinct, and such a
// projection is injective — so it is a stateless reslice of the input's
// columns, still counted in m as a stage. Otherwise the dedup set, a relation.KeyTable, grows with
// the number of distinct output rows — the one stateful stage of a
// pipeline, which is why the routing layer partitions before projecting;
// within one shard it holds exactly the rows relation.ProjectIdx would.
func Project(in Iterator, idx []int, attrs []string, size int, m *counter.Set) Iterator {
	if Covers(idx, len(in.Attrs())) {
		return &keepIter{in: in, keep: idx, attrs: attrs, m: m}
	}
	return &projIter{in: in, idx: idx, attrs: attrs, size: sizeOr(size), seen: relation.NewKeyTable(len(idx), sizeOr(size)), m: m}
}

// ProjectDense is Project deduplicating in a dense bitmap instead of a
// hash table: set (from NewDenseSet over the input's column ranges and
// the same idx, and used by this stage alone) marks every projected row
// the stage passes. A row holding a value outside the set's ranges ends
// the stage with an error. Several pipelines whose duplicates may cross
// between them deduplicate together through ProjectDenseParts.
func ProjectDense(in Iterator, idx []int, attrs []string, set *DenseSet, size int, m *counter.Set) Iterator {
	return &projIter{in: in, idx: idx, attrs: attrs, size: sizeOr(size), dense: set, m: m}
}

// Covers reports whether idx names every position in [0, width): a
// projection onto it keeps every column and deduplicates nothing.
func Covers(idx []int, width int) bool {
	kept := make([]bool, width)
	n := 0
	for _, c := range idx {
		if !kept[c] {
			kept[c] = true
			n++
		}
	}
	return n == width
}

type projIter struct {
	in    Iterator
	idx   []int
	attrs []string
	size  int
	seen  *relation.KeyTable // the hash dedup set, or nil
	dense *DenseSet          // the dense dedup set, or nil
	m     *counter.Set
	done  bool
	cur   *Batch // partially consumed input batch
	row   int
	// The dense set's bit indexes of cur's rows from bitLo on, valid when
	// inRange: no value among those rows lies outside the set's ranges.
	bit     []uint32
	bitLo   int
	inRange bool
	dst     [][]relation.Value // output columns at full batch size
	out     Batch
}

func (p *projIter) Attrs() []string { return p.attrs }

func (p *projIter) Next(ctx context.Context) (*Batch, error) {
	if p.done && p.cur == nil {
		return nil, nil
	}
	if p.dst == nil {
		p.dst = columns(len(p.idx), p.size)
		p.out.Cols = make([][]relation.Value, len(p.idx))
	}
	n := 0
	for n < p.size {
		// Refill from the input when the held batch is exhausted. Holding a
		// partially consumed batch across Next calls is within the iterator
		// contract: the input is pulled again only after the hold is spent.
		if p.cur == nil || p.row >= p.cur.N {
			p.cur = nil
			if p.done {
				break
			}
			b, err := p.in.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				p.done = true
				break
			}
			p.cur, p.row, p.bitLo, p.bit = b, 0, 0, nil
		}
		for ; p.row < p.cur.N && n < p.size; p.row++ {
			var added bool
			if p.dense == nil {
				_, added = p.seen.Insert(p.cur.Cols, p.idx, p.row)
			} else {
				if p.row == p.bitLo+len(p.bit) {
					p.bitLo = p.row
					p.bit, p.inRange = p.dense.indexes(p.cur.Cols, p.row, min(p.row+selRows, p.cur.N))
				}
				if p.inRange {
					added = p.dense.set(p.bit[p.row-p.bitLo])
				} else {
					var err error
					if added, err = p.dense.insert(p.cur.Cols, p.row); err != nil {
						return nil, err
					}
				}
			}
			if !added {
				continue
			}
			for j, c := range p.idx {
				p.dst[j][n] = p.cur.Cols[c][p.row]
			}
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	for j := range p.dst {
		p.out.Cols[j] = p.dst[j][:n]
	}
	p.out.N = n
	emitted(p.m, n, len(p.idx))
	return &p.out, nil
}

// Empty returns an iterator over the given schema producing no batches.
func Empty(attrs []string) Iterator { return emptyIter{attrs: attrs} }

type emptyIter struct{ attrs []string }

func (e emptyIter) Attrs() []string                      { return e.attrs }
func (e emptyIter) Next(context.Context) (*Batch, error) { return nil, nil }

// denseMaxBits caps a DenseSet, in bits (2 MiB): a projection whose kept
// columns' value ranges multiply to more combinations deduplicates in a
// hash table instead.
const denseMaxBits = 1 << 24
