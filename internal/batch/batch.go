package batch

// Column batches, the iterator contract, and the single-input pipeline
// stages (scan, join probe, semijoin, projection, materialize, buffered
// replay). The multi-input exchange and the skew-growing merge live in
// exchange.go; package documentation in doc.go.

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

// put copies b's rows from row from on into the free tail, as many as fit,
// and returns how many it copied.
func (k *block) put(b *Batch, from int) int {
	n := min(b.N-from, k.cap-k.n)
	for c, col := range k.cols {
		copy(col[k.n:k.n+n], b.Cols[c][from:from+n])
	}
	k.n += n
	return n
}

// Scan streams a relation as batches of up to size rows. Batches alias the
// relation's column storage (zero copy); under a spill governor the source
// is pinned only across each individual Next, so a parked relation streams
// out without being held resident whole.
func Scan(r *relation.Relation, size int, m *counter.Set) Iterator {
	return &scanIter{r: r, size: sizeOr(size), m: m}
}

type scanIter struct {
	r    *relation.Relation
	size int
	pos  int
	m    *counter.Set
	out  Batch
}

func (s *scanIter) Attrs() []string { return s.r.Attrs }

func (s *scanIter) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := s.r.Size() - s.pos
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
// (left position, right position) and matching row pairs are emitted in the
// raw all-left-columns-then-all-right-columns layout — the caller projects
// with Keep. Empty pairs means a cross product. The right side is the
// buffered operand: it must be a relation because every left row may match
// anywhere in it.
func JoinProbe(left Iterator, right *relation.Relation, pairs [][2]int, size int, m *counter.Set) Iterator {
	attrs := make([]string, 0, len(left.Attrs())+right.Arity())
	attrs = append(attrs, left.Attrs()...)
	attrs = append(attrs, right.Attrs...)
	return &joinIter{left: left, right: right, pairs: pairs, attrs: attrs, size: sizeOr(size), m: m}
}

type joinIter struct {
	left  Iterator
	right *relation.Relation
	pairs [][2]int
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
	matches []int32 // right rows matching cur[row-1] not yet emitted
	mpos    int

	dst [][]relation.Value // output columns at full batch size
	out Batch
}

func (j *joinIter) Attrs() []string { return j.attrs }

// start builds the probe state on first pull: the memoized index over the
// right side's join columns (or, for a cross product, the one match list
// every left row shares) and a column snapshot to copy matches from.
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
	j.dst = columns(len(j.attrs), j.size)
	j.out.Cols = make([][]relation.Value, len(j.attrs))
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
	lar := len(j.attrs) - len(j.rcols)
	dst := j.dst
	n := 0
	for n < j.size {
		// Drain pending matches of the current left row.
		for j.mpos < len(j.matches) && n < j.size {
			ri := int(j.matches[j.mpos])
			j.mpos++
			lrow := j.row - 1
			for c := 0; c < lar; c++ {
				dst[c][n] = j.cur.Cols[c][lrow]
			}
			for c, col := range j.rcols {
				dst[lar+c][n] = col[ri]
			}
			n++
		}
		if n == j.size {
			break
		}
		// Advance to the next left row, pulling a fresh batch when the
		// current one is exhausted.
		if j.cur == nil || j.row >= j.cur.N {
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
			// Cross product: every right row matches.
			j.matches = j.all
			j.mpos = 0
			j.row++
			continue
		}
		j.matches = j.ix.Rows(j.cur.Cols, j.lpos, j.row)
		j.mpos = 0
		j.row++
	}
	if n == 0 {
		return nil, nil
	}
	for c := range dst {
		j.out.Cols[c] = dst[c][:n]
	}
	j.out.N = n
	emitted(j.m, n, len(j.attrs))
	return &j.out, nil
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

// Keep is the stateless column projection: each output batch reslices the
// input batch's columns at the kept positions (repeats allowed), renamed to
// attrs. Zero copy and duplicate-preserving — the natural-join schema step
// after a raw JoinProbe, and what Project becomes when it keeps every input
// column.
func Keep(in Iterator, keep []int, attrs []string) Iterator {
	return &keepIter{in: in, keep: keep, attrs: attrs}
}

type keepIter struct {
	in    Iterator
	keep  []int
	attrs []string
	m     *counter.Set // set only when the Keep stands in for Project
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
// projection is injective — so it is the stateless Keep, still counted in
// m as a stage. Otherwise the dedup set, a relation.KeyTable, grows with
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
	dst   [][]relation.Value // output columns at full batch size
	out   Batch
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
			p.cur, p.row = b, 0
		}
		for ; p.row < p.cur.N && n < p.size; p.row++ {
			var added bool
			if p.dense != nil {
				var err error
				if added, err = p.dense.insert(p.cur.Cols, p.row); err != nil {
					return nil, err
				}
			} else {
				_, added = p.seen.Insert(p.cur.Cols, p.idx, p.row)
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

// sinkMaxBlock caps a Materialize block, in rows. Below it each block
// holds as many rows as all earlier ones together, so a small output pays
// for few blocks; above it the blocks' unused tail is at most one block.
const sinkMaxBlock = 1 << 16

// denseMaxBits caps a DenseSet, in bits (2 MiB): a projection whose kept
// columns' value ranges multiply to more combinations deduplicates in a
// hash table instead.
const denseMaxBits = 1 << 24

// Materialize drains a pipeline into a relation named name. The source must
// produce globally distinct rows (every stage in this package preserves set
// semantics), so the sink copies rows without a dedup pass. govern, when
// non-nil, is applied to the built relation before it is returned —
// registration with a spill governor and evaluation scope.
//
// Rows are copied into blocks: the first as large as the first batch, each
// later one as large as all before it, up to sinkMaxBlock rows. An output
// that fits in one block is built on that block; a longer one is copied
// once more into an exact slab at end of stream. The blocks never hold
// more than twice the rows, so the sink allocates at most three times the
// output's column bytes: twice when the blocks come out full, once for a
// single batch.
func Materialize(ctx context.Context, it Iterator, name string, govern func(*relation.Relation), m *counter.Set) (*relation.Relation, error) {
	attrs := it.Attrs()
	var blocks []block
	rows := 0
	for {
		b, err := it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; {
			if len(blocks) == 0 || blocks[len(blocks)-1].n == blocks[len(blocks)-1].cap {
				next := b.N
				if len(blocks) > 0 {
					next = min(rows+i, sinkMaxBlock)
				}
				blocks = append(blocks, newBlock(len(attrs), next))
			}
			i += blocks[len(blocks)-1].put(b, i)
		}
		rows += b.N
	}
	if rows == 0 {
		return relation.New(name, attrs...), nil
	}
	var cols [][]relation.Value
	if len(blocks) == 1 {
		cols = window(blocks[0].cols, 0, rows)
	} else {
		cols = columns(len(attrs), rows)
		at := 0
		for _, k := range blocks {
			for c, col := range k.cols {
				copy(cols[c][at:], col[:k.n])
			}
			at += k.n
		}
	}
	out := relation.NewFromColumns(name, attrs, cols)
	materialized(m, rows, len(attrs))
	if govern != nil {
		govern(out)
	}
	return out, nil
}

// Buffered tees a pipeline into governed chunk relations as it is pulled:
// batches pass through unchanged while their rows are copied into chunks of
// chunkRows rows, each sealed chunk registering with the spill governor (via
// the govern callback) as it fills — a rewindable input pays its residency
// incrementally instead of on first replay. After the source is exhausted,
// Rewind replays the recorded rows.
type Buffered struct {
	src    Iterator
	name   string
	size   int
	chunk  int
	govern func(*relation.Relation)
	m      *counter.Set

	chunks  []*relation.Relation
	open    block // the chunk being filled, chunk rows long
	done    bool
	drained chan struct{}
}

// bufferedChunkRows returns the rows per sealed chunk for a batch size:
// at least one batch, at least 1024 rows, so tiny batch sizes don't pay a
// governor registration per handful of rows.
func bufferedChunkRows(size int) int {
	if size < 1024 {
		return 1024
	}
	return size
}

// NewBuffered wraps src. govern (nil ok) is applied to every sealed chunk.
func NewBuffered(src Iterator, name string, size int, govern func(*relation.Relation), m *counter.Set) *Buffered {
	size = sizeOr(size)
	return &Buffered{src: src, name: name, size: size, chunk: bufferedChunkRows(size), govern: govern, m: m, drained: make(chan struct{})}
}

// Attrs returns the source's schema.
func (b *Buffered) Attrs() []string { return b.src.Attrs() }

// Next pulls from the source, records the batch, and passes it through.
func (b *Buffered) Next(ctx context.Context) (*Batch, error) {
	bt, err := b.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	if bt == nil {
		b.finish()
		return nil, nil
	}
	for i := 0; i < bt.N; {
		if b.open.cols == nil {
			b.open = newBlock(len(bt.Cols), b.chunk)
		}
		i += b.open.put(bt, i)
		if b.open.n == b.chunk {
			b.seal()
		}
	}
	return bt, nil
}

// seal converts the open chunk's rows into a governed chunk relation.
func (b *Buffered) seal() {
	n := b.open.n
	if n == 0 {
		return
	}
	r := relation.NewFromColumns(b.name, b.src.Attrs(), window(b.open.cols, 0, n))
	materialized(b.m, n, len(b.open.cols))
	if b.govern != nil {
		b.govern(r)
	}
	b.chunks = append(b.chunks, r)
	b.open = block{}
}

// finish seals the trailing partial chunk at end of stream and releases
// any replay iterators waiting on the drain.
func (b *Buffered) finish() {
	if !b.done {
		b.done = true
		b.seal()
		close(b.drained)
	}
}

// Drain pulls the source to end of stream, recording everything.
func (b *Buffered) Drain(ctx context.Context) error {
	for !b.done {
		if _, err := b.Next(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Rewind returns an iterator replaying the recorded rows from the governed
// chunks. The replay's first Next blocks until the source has been drained
// to end of stream (Drain, or Next until nil) — a partial replay would
// silently drop the source's tail — so replay iterators may be handed to
// concurrent consumers while another goroutine is still pulling the tee,
// as long as that goroutine is guaranteed to finish. Each call returns an
// independent replay; replays of one Buffered may run concurrently.
func (b *Buffered) Rewind() Iterator {
	return &replayIter{b: b, size: b.size}
}

type replayIter struct {
	b     *Buffered
	size  int
	chunk int
	pos   int
	out   Batch
}

func (r *replayIter) Attrs() []string { return r.b.src.Attrs() }

func (r *replayIter) Next(ctx context.Context) (*Batch, error) {
	select {
	case <-r.b.drained:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for r.chunk < len(r.b.chunks) {
		c := r.b.chunks[r.chunk]
		n := c.Size() - r.pos
		if n <= 0 {
			r.chunk++
			r.pos = 0
			continue
		}
		if n > r.size {
			n = r.size
		}
		if r.out.Cols == nil {
			r.out.Cols = make([][]relation.Value, c.Arity())
		}
		c.Pin()
		for i := range r.out.Cols {
			r.out.Cols[i] = c.Column(i)[r.pos : r.pos+n]
		}
		c.Unpin()
		r.out.N = n
		r.pos += n
		emitted(r.b.m, n, c.Arity())
		return &r.out, nil
	}
	return nil, nil
}
