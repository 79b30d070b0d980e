package batch

// Column batches, the iterator contract, and the single-input pipeline
// stages (scan, join probe, semijoin, projection, materialize, buffered
// replay). The multi-input exchange and the skew-growing merge live in
// exchange.go; package documentation in doc.go.

import (
	"context"
	"sync/atomic"

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

// Metrics counts what the pipelines did. All counters are atomic: one
// Metrics may be shared across concurrent evaluations (the Engine does).
// Methods on a nil *Metrics are no-ops, so operators count unconditionally.
type Metrics struct {
	// Batches counts batches emitted by pipeline stages.
	Batches atomic.Int64
	// Rows counts rows flowing out of pipeline stages (a row passing
	// through k stages counts k times — the rows an executor that built
	// every operator's output would have copied).
	Rows atomic.Int64
	// BufferedFallbacks counts pipelines that had to be buffered into a
	// relation after all — probe sides of joins and semijoins, inputs
	// that are re-iterated.
	BufferedFallbacks atomic.Int64
	// BytesStreamed is the column bytes emitted by pipeline stages.
	BytesStreamed atomic.Int64
	// BytesMaterialized is the column bytes pipelines wrote into relations
	// (exchange chunks, buffered fallbacks, final sinks).
	BytesMaterialized atomic.Int64
}

// Stats is a point-in-time copy of Metrics.
type Stats struct {
	// BatchesProduced is the number of batches pipeline stages emitted.
	BatchesProduced int64
	// RowsStreamed is the number of rows that flowed out of pipeline
	// stages, counted once per stage passed.
	RowsStreamed int64
	// BufferedFallbacks counts pipelines forced into a materialized
	// relation (probe sides, re-iterated inputs).
	BufferedFallbacks int64
	// BytesNeverMaterialized is the column bytes that flowed through
	// stages minus the bytes some stage wrote into a relation — the
	// allocation an executor that built every operator's output would
	// have paid and the pipelines never did.
	BytesNeverMaterialized int64
}

// Snapshot copies the counters (nil-safe: a nil receiver reads all zeros).
func (m *Metrics) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	saved := m.BytesStreamed.Load() - m.BytesMaterialized.Load()
	if saved < 0 {
		saved = 0
	}
	return Stats{
		BatchesProduced:        m.Batches.Load(),
		RowsStreamed:           m.Rows.Load(),
		BufferedFallbacks:      m.BufferedFallbacks.Load(),
		BytesNeverMaterialized: saved,
	}
}

// AddTo merges this Metrics' counts into dst (both nil-safe). The Engine
// runs traced evaluations against a private Metrics so the per-query
// delta is exact, then folds it into the shared engine-wide counters.
func (m *Metrics) AddTo(dst *Metrics) {
	if m == nil || dst == nil {
		return
	}
	dst.Batches.Add(m.Batches.Load())
	dst.Rows.Add(m.Rows.Load())
	dst.BufferedFallbacks.Add(m.BufferedFallbacks.Load())
	dst.BytesStreamed.Add(m.BytesStreamed.Load())
	dst.BytesMaterialized.Add(m.BytesMaterialized.Load())
}

// Reset zeroes every counter (nil-safe).
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.Batches.Store(0)
	m.Rows.Store(0)
	m.BufferedFallbacks.Store(0)
	m.BytesStreamed.Store(0)
	m.BytesMaterialized.Store(0)
}

// emitted records one batch of rows×cols values leaving a stage.
func (m *Metrics) emitted(rows, cols int) {
	if m == nil || rows == 0 {
		return
	}
	m.Batches.Add(1)
	m.Rows.Add(int64(rows))
	m.BytesStreamed.Add(int64(rows) * int64(cols) * 4)
}

// materialized records rows×cols values written into a relation.
func (m *Metrics) materialized(rows, cols int) {
	if m == nil || rows == 0 {
		return
	}
	m.BytesMaterialized.Add(int64(rows) * int64(cols) * 4)
}

// fallback records one pipeline buffered into a relation.
func (m *Metrics) fallback() {
	if m != nil {
		m.BufferedFallbacks.Add(1)
	}
}

// sizeOr returns size, or DefaultSize when size is unset.
func sizeOr(size int) int {
	if size <= 0 {
		return DefaultSize
	}
	return size
}

// Scan streams a relation as batches of up to size rows. Batches alias the
// relation's column storage (zero copy); under a spill governor the source
// is pinned only across each individual Next, so a parked relation streams
// out without being held resident whole.
func Scan(r *relation.Relation, size int, m *Metrics) Iterator {
	return &scanIter{r: r, size: sizeOr(size), m: m}
}

type scanIter struct {
	r    *relation.Relation
	size int
	pos  int
	m    *Metrics
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
	s.m.emitted(n, arity)
	return &s.out, nil
}

// JoinProbe streams the hash join of a left pipeline against a relation:
// each left batch probes right's memoized index on the given column pairs
// (left position, right position) and matching row pairs are emitted in the
// raw all-left-columns-then-all-right-columns layout — the caller projects
// with Keep. Empty pairs means a cross product. The right side is the
// buffered operand: it must be a relation because every left row may match
// anywhere in it.
func JoinProbe(left Iterator, right *relation.Relation, pairs [][2]int, size int, m *Metrics) Iterator {
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
	m     *Metrics

	started bool
	done    bool
	ix      *relation.Index // nil for cross products
	all     []int32         // every right row: a cross product's matches
	rcols   [][]relation.Value

	cur     *Batch  // current left batch
	row     int     // next left row to probe
	matches []int32 // right rows matching cur[row-1] not yet emitted
	mpos    int

	out  Batch
	keys []byte
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
		for i, p := range j.pairs {
			cols[i] = p[1]
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
	j.out.Cols = make([][]relation.Value, len(j.attrs))
	for c := range j.out.Cols {
		j.out.Cols[c] = make([]relation.Value, 0, j.size)
	}
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
	for c := range j.out.Cols {
		j.out.Cols[c] = j.out.Cols[c][:0]
	}
	n := 0
	for n < j.size {
		// Drain pending matches of the current left row.
		for j.mpos < len(j.matches) && n < j.size {
			ri := int(j.matches[j.mpos])
			j.mpos++
			lrow := j.row - 1
			for c := 0; c < lar; c++ {
				j.out.Cols[c] = append(j.out.Cols[c], j.cur.Cols[c][lrow])
			}
			for c, col := range j.rcols {
				j.out.Cols[lar+c] = append(j.out.Cols[lar+c], col[ri])
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
		j.keys = j.keys[:0]
		for _, p := range j.pairs {
			j.keys = appendValue(j.keys, j.cur.Cols[p[0]][j.row])
		}
		j.matches = j.ix.Rows(j.keys)
		j.mpos = 0
		j.row++
	}
	if n == 0 {
		return nil, nil
	}
	j.out.N = n
	j.m.emitted(n, len(j.attrs))
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

// appendValue packs v like relation.KeyFor does, so probe keys match the
// index's fixed-width packing.
func appendValue(buf []byte, v relation.Value) []byte {
	u := uint32(v)
	return append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// Semijoin streams left ⋉ right: left rows with at least one match in
// right on the given column pairs (left position, right position) pass
// through; the rest are dropped. With no pairs the stage degrades like
// relation.Semijoin: everything passes unless right is empty, in which
// case the left pipeline is never pulled. Right is the buffered operand
// (a surviving row may match anywhere in it).
func Semijoin(left Iterator, right *relation.Relation, lCols, rCols []int, m *Metrics) Iterator {
	return &semiIter{left: left, right: right, lCols: lCols, rCols: rCols, m: m}
}

type semiIter struct {
	left         Iterator
	right        *relation.Relation
	lCols, rCols []int
	m            *Metrics

	started bool
	done    bool
	ix      *relation.Index

	out  Batch
	keys []byte
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
			s.m.emitted(b.N, len(b.Cols))
			return b, nil
		}
		if s.out.Cols == nil {
			s.out.Cols = make([][]relation.Value, len(b.Cols))
		}
		for c := range s.out.Cols {
			s.out.Cols[c] = s.out.Cols[c][:0]
		}
		n := 0
		for i := 0; i < b.N; i++ {
			s.keys = s.keys[:0]
			for _, c := range s.lCols {
				s.keys = appendValue(s.keys, b.Cols[c][i])
			}
			if !s.ix.Has(s.keys) {
				continue
			}
			for c := range b.Cols {
				s.out.Cols[c] = append(s.out.Cols[c], b.Cols[c][i])
			}
			n++
		}
		if n == 0 {
			continue // whole batch filtered; pull the next one
		}
		s.out.N = n
		s.m.emitted(n, len(b.Cols))
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
	m     *Metrics // set only when the Keep stands in for Project
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
	k.m.emitted(b.N, len(k.keep))
	return &k.out, nil
}

// Project is the streaming duplicate-eliminating projection onto idx
// (repeats allowed): the first occurrence of each projected row passes,
// later duplicates are dropped. A projection that keeps every input column
// cannot create duplicates — pipeline rows are distinct, and such a
// projection is injective — so it is the stateless Keep, still counted in
// m as a stage. Otherwise the dedup set grows with the number of distinct
// output rows — the one stateful stage of a pipeline, which is why the
// routing layer partitions before projecting; within one shard it holds
// exactly the rows relation.ProjectIdx would.
func Project(in Iterator, idx []int, attrs []string, size int, m *Metrics) Iterator {
	if covers(idx, len(in.Attrs())) {
		return &keepIter{in: in, keep: idx, attrs: attrs, m: m}
	}
	return &projIter{in: in, idx: idx, attrs: attrs, size: sizeOr(size), seen: newRowSet(len(idx)), m: m}
}

// covers reports whether idx names every position in [0, width).
func covers(idx []int, width int) bool {
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

// rowSet is Project's dedup set. Rows of one or two columns — every row
// the benchmark's workloads dedup — pack into one uint64 and allocate
// nothing; wider rows use the byte-string packing of relation.KeyFor.
type rowSet struct {
	packed map[uint64]struct{}
	bytes  map[string]struct{}
	buf    []byte
}

func newRowSet(width int) *rowSet {
	if width <= 2 {
		return &rowSet{packed: make(map[uint64]struct{})}
	}
	return &rowSet{bytes: make(map[string]struct{})}
}

// add inserts the row of cols at the idx positions and reports whether it
// was new.
func (s *rowSet) add(cols [][]relation.Value, idx []int, row int) bool {
	if s.packed != nil {
		// A packed key costs one hash either way: insert, and compare the
		// set's size.
		var k uint64
		for i, c := range idx {
			k |= uint64(cols[c][row]) << (32 * i)
		}
		n := len(s.packed)
		s.packed[k] = struct{}{}
		return len(s.packed) > n
	}
	// A string key is looked up first, so that only a new row pays for
	// allocating it.
	s.buf = s.buf[:0]
	for _, c := range idx {
		s.buf = appendValue(s.buf, cols[c][row])
	}
	if _, dup := s.bytes[string(s.buf)]; dup {
		return false
	}
	s.bytes[string(s.buf)] = struct{}{}
	return true
}

type projIter struct {
	in    Iterator
	idx   []int
	attrs []string
	size  int
	seen  *rowSet
	m     *Metrics
	done  bool
	cur   *Batch // partially consumed input batch
	row   int
	out   Batch
}

func (p *projIter) Attrs() []string { return p.attrs }

func (p *projIter) Next(ctx context.Context) (*Batch, error) {
	if p.done && p.cur == nil {
		return nil, nil
	}
	if p.out.Cols == nil {
		p.out.Cols = make([][]relation.Value, len(p.idx))
		for c := range p.out.Cols {
			p.out.Cols[c] = make([]relation.Value, 0, p.size)
		}
	}
	for c := range p.out.Cols {
		p.out.Cols[c] = p.out.Cols[c][:0]
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
			if !p.seen.add(p.cur.Cols, p.idx, p.row) {
				continue
			}
			for j, c := range p.idx {
				p.out.Cols[j] = append(p.out.Cols[j], p.cur.Cols[c][p.row])
			}
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	p.out.N = n
	p.m.emitted(n, len(p.idx))
	return &p.out, nil
}

// Empty returns an iterator over the given schema producing no batches.
func Empty(attrs []string) Iterator { return emptyIter{attrs: attrs} }

type emptyIter struct{ attrs []string }

func (e emptyIter) Attrs() []string                      { return e.attrs }
func (e emptyIter) Next(context.Context) (*Batch, error) { return nil, nil }

// Materialize drains a pipeline into a relation named name. The source must
// produce globally distinct rows (every stage in this package preserves set
// semantics), so the sink appends columns without a dedup pass. govern, when
// non-nil, is applied to the built relation before it is returned —
// registration with a spill governor and evaluation scope.
func Materialize(ctx context.Context, it Iterator, name string, govern func(*relation.Relation), m *Metrics) (*relation.Relation, error) {
	attrs := it.Attrs()
	cols := make([][]relation.Value, len(attrs))
	rows := 0
	for {
		b, err := it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for c := range cols {
			cols[c] = append(cols[c], b.Cols[c][:b.N]...)
		}
		rows += b.N
	}
	if rows == 0 {
		return relation.New(name, attrs...), nil
	}
	out := relation.NewFromColumns(name, attrs, cols)
	m.materialized(rows, len(attrs))
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
// Rewind replays the recorded rows and Rel returns them as one relation.
type Buffered struct {
	src    Iterator
	name   string
	size   int
	chunk  int
	govern func(*relation.Relation)
	m      *Metrics

	chunks  []*relation.Relation
	open    [][]relation.Value
	openN   int
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
func NewBuffered(src Iterator, name string, size int, govern func(*relation.Relation), m *Metrics) *Buffered {
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
	if b.open == nil {
		b.open = make([][]relation.Value, len(bt.Cols))
	}
	for c := range b.open {
		b.open[c] = append(b.open[c], bt.Cols[c][:bt.N]...)
	}
	b.openN += bt.N
	if b.openN >= b.chunk {
		b.seal()
	}
	return bt, nil
}

// seal converts the open columns into a governed chunk relation.
func (b *Buffered) seal() {
	if b.openN == 0 {
		return
	}
	r := relation.NewFromColumns(b.name, b.src.Attrs(), b.open)
	b.m.materialized(b.openN, len(b.open))
	if b.govern != nil {
		b.govern(r)
	}
	b.chunks = append(b.chunks, r)
	b.open, b.openN = nil, 0
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

// Rel drains any remainder of the source and returns the recorded rows as
// one relation (governed via the same callback as the chunks), counting a
// buffered fallback: the pipeline had to become a relation after all.
func (b *Buffered) Rel(ctx context.Context) (*relation.Relation, error) {
	if err := b.Drain(ctx); err != nil {
		return nil, err
	}
	b.m.fallback()
	switch len(b.chunks) {
	case 0:
		return relation.New(b.name, b.src.Attrs()...), nil
	case 1:
		return b.chunks[0], nil
	}
	flat, err := relation.Concat(b.name, b.src.Attrs(), b.chunks...)
	if err != nil {
		return nil, err
	}
	b.m.materialized(flat.Size(), flat.Arity())
	if b.govern != nil {
		b.govern(flat)
	}
	return flat, nil
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
		r.b.m.emitted(n, c.Arity())
		return &r.out, nil
	}
	return nil, nil
}

// clone deep-copies a batch — the escape hatch for consumers that must hand
// a batch across a goroutine boundary while the producer keeps pulling.
func (b *Batch) clone() *Batch {
	out := &Batch{Cols: make([][]relation.Value, len(b.Cols)), N: b.N}
	for c := range b.Cols {
		out.Cols[c] = append([]relation.Value(nil), b.Cols[c][:b.N]...)
	}
	return out
}
