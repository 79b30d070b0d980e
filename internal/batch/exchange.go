package batch

// The streaming exchange: repartitioning a set of source pipelines onto a
// new key without materializing either side whole.

import (
	"context"
	"sync"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
)

// Exchange repartitions source pipelines onto column key at partition
// count p. Output shard k (Part(k)) receives exactly the rows whose key
// value hashes to k, in batches of up to size rows.
//
// The exchange is pull-driven and cooperative: whichever output shard is
// pulled next claims an idle source, drains one batch from it outside the
// exchange lock — so upstream stages of different sources still run in
// parallel — and scatters the rows into per-shard pending chunks under the
// lock. Chunks reaching chunk size are sealed into relations and handed to
// the govern callback, which registers them with the spill governor and the
// evaluation's scope: a repartitioned stream becomes governed residency
// incrementally, as it flows, never as one whole relation.
//
// Part iterators are safe for concurrent use by the downstream per-shard
// pipelines. onRows, when non-nil, observes every scattered batch's row
// count (the routing layer's exchanged-rows counter).
type Exchange struct {
	attrs  []string
	key    int
	p      int
	size   int
	chunk  int
	govern func(*relation.Relation)
	onRows func(int)
	m      *counter.Set

	mu      sync.Mutex
	cond    *sync.Cond
	src     []Iterator
	busy    []bool
	srcDone int
	pend    []*pendQueue
	done    bool
	err     error
}

// pendQueue is one output shard's FIFO of scattered rows: sealed governed
// chunk relations awaiting read, then an open chunk still being written.
type pendQueue struct {
	sealed   []*relation.Relation
	read     int   // consumed rows of sealed[0]
	open     block // chunk rows long; rows before openRead are consumed
	openRead int
}

// avail returns the rows queued and not yet consumed.
func (q *pendQueue) avail() int {
	n := q.open.n - q.openRead
	for i, c := range q.sealed {
		n += c.Size()
		if i == 0 {
			n -= q.read
		}
	}
	return n
}

// NewExchange builds an exchange over the given sources (all sharing
// attrs); govern and onRows may be nil.
func NewExchange(srcs []Iterator, attrs []string, key, p, size int, govern func(*relation.Relation), onRows func(int), m *counter.Set) *Exchange {
	e := &Exchange{
		attrs:  attrs,
		key:    key,
		p:      p,
		size:   sizeOr(size),
		chunk:  chunkRows(sizeOr(size)),
		govern: govern,
		onRows: onRows,
		m:      m,
		src:    srcs,
		busy:   make([]bool, len(srcs)),
		pend:   make([]*pendQueue, p),
	}
	for k := range e.pend {
		e.pend[k] = &pendQueue{}
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Part returns output shard k's iterator (concurrent-safe).
func (e *Exchange) Part(k int) Iterator { return &partIter{e: e, k: k} }

type partIter struct {
	e   *Exchange
	k   int
	out Batch
}

func (p *partIter) Attrs() []string { return p.e.attrs }

func (p *partIter) Next(ctx context.Context) (*Batch, error) {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		q := e.pend[p.k]
		if q.avail() >= e.size || (e.done && q.avail() > 0) {
			return e.cut(q, &p.out), nil
		}
		if e.done {
			return nil, e.err
		}
		if err := ctx.Err(); err != nil {
			// Record the cancellation so waiters on other shards wake too.
			e.done, e.err = true, err
			e.cond.Broadcast()
			return nil, err
		}
		i := e.claim()
		if i < 0 {
			// Every live source is being drained by another shard's pull;
			// its scatter will broadcast.
			e.cond.Wait()
			continue
		}
		e.mu.Unlock()
		b, err := e.src[i].Next(ctx)
		e.mu.Lock()
		e.busy[i] = false
		switch {
		case err != nil:
			e.done, e.err = true, err
		case b == nil:
			e.src[i] = nil
			e.srcDone++
			if e.srcDone == len(e.src) {
				e.done = true
			}
		default:
			e.scatter(b)
		}
		e.cond.Broadcast()
	}
}

// claim marks an idle, unfinished source busy and returns its index, or -1.
func (e *Exchange) claim() int {
	for i, s := range e.src {
		if s != nil && !e.busy[i] {
			e.busy[i] = true
			return i
		}
	}
	return -1
}

// scatter routes one source batch's rows into the per-shard queues,
// sealing chunks that reach chunk size. Called with the lock held; the
// rows are copied, so the source may reuse the batch.
func (e *Exchange) scatter(b *Batch) {
	keyCol := b.Cols[e.key]
	for i := 0; i < b.N; i++ {
		q := e.pend[shardOf(keyCol[i], e.p)]
		if q.open.cols == nil {
			q.open = newBlock(len(e.attrs), e.chunk)
		}
		for c, col := range q.open.cols {
			col[q.open.n] = b.Cols[c][i]
		}
		q.open.n++
		if q.open.n == e.chunk {
			e.seal(q)
		}
	}
	if e.onRows != nil {
		e.onRows(b.N)
	}
}

// seal converts the unconsumed rows of q's full open chunk into a governed
// chunk relation, built on the chunk's columns without a copy.
func (e *Exchange) seal(q *pendQueue) {
	if n := q.open.n - q.openRead; n > 0 {
		r := relation.NewFromColumns("exchange", e.attrs, window(q.open.cols, q.openRead, q.open.n))
		materialized(e.m, n, len(e.attrs))
		if e.govern != nil {
			e.govern(r)
		}
		q.sealed = append(q.sealed, r)
	}
	q.open, q.openRead = block{}, 0
}

// cut emits up to size rows from the head of q into out. Called with the
// lock held. Reading a sealed chunk reslices its column snapshots (zero
// copy); reading the open chunk reslices it past the consumed rows, which
// is safe because scatter only writes rows after the ones already emitted.
func (e *Exchange) cut(q *pendQueue, out *Batch) *Batch {
	if out.Cols == nil {
		out.Cols = make([][]relation.Value, len(e.attrs))
	}
	if len(q.sealed) > 0 {
		c := q.sealed[0]
		n := c.Size() - q.read
		if n > e.size {
			n = e.size
		}
		c.Pin()
		for i := range out.Cols {
			out.Cols[i] = c.Column(i)[q.read : q.read+n]
		}
		c.Unpin()
		q.read += n
		if q.read == c.Size() {
			q.sealed = q.sealed[1:]
			q.read = 0
		}
		out.N = n
		emitted(e.m, n, len(e.attrs))
		return out
	}
	n := min(q.open.n-q.openRead, e.size)
	for i, col := range q.open.cols {
		out.Cols[i] = col[q.openRead : q.openRead+n : q.openRead+n]
	}
	q.openRead += n
	out.N = n
	emitted(e.m, n, len(e.attrs))
	return out
}

// chunkRows returns the rows per sealed chunk for a batch size: at least
// one batch, at least 1024 rows, so tiny batch sizes don't pay a governor
// registration per handful of rows.
func chunkRows(size int) int {
	return max(size, 1024)
}

// shardOf mirrors shard.ShardOf: the assignment must match the hash
// shard.Partition uses, so an exchanged pipeline part and the partitioned
// probe-side shard it meets hold the same values. Kept local to avoid an import cycle (the shard
// package composes batch pipelines).
func shardOf(v relation.Value, p int) int {
	h := uint64(uint32(v)) * 0x9E3779B1
	return int((h >> 16) % uint64(p))
}
