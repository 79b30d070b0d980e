package batch

// The streaming exchange: repartitioning a set of source pipelines onto a
// new key without materializing either side whole, plus the skew-growing
// merge that splits a hot output shard into parallel pulls while the
// exchange is still scattering.

import (
	"context"
	"sync"

	"cqbound/internal/pool"
	"cqbound/internal/relation"
)

// hotMinRows is the scattered-row floor below which hot detection stays
// off: a shard cannot be declared hot until the exchange has seen enough
// rows for the fractions to mean anything.
const hotMinRows = 4096

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
// pipelines. Hot(k) reports whether shard k has received more than frac of
// all scattered rows (sticky once set) — the signal Grow uses to split a
// hot shard's downstream work while the exchange is still running. onRows,
// when non-nil, observes every scattered batch's row count (the routing
// layer's exchanged-rows counter).
type Exchange struct {
	attrs  []string
	key    int
	p      int
	size   int
	chunk  int
	frac   float64
	govern func(*relation.Relation)
	onRows func(int)
	m      *Metrics

	mu      sync.Mutex
	cond    *sync.Cond
	src     []Iterator
	busy    []bool
	srcDone int
	pend    []*pendQueue
	total   int
	done    bool
	err     error
}

// pendQueue is one output shard's FIFO of scattered rows: sealed governed
// chunk relations awaiting read, then an open chunk still being written.
type pendQueue struct {
	sealed    []*relation.Relation
	read      int   // consumed rows of sealed[0]
	open      block // chunk rows long; rows before openRead are consumed
	openRead  int
	scattered int // rows ever routed here, consumed or not (hot accounting)
	hot       bool
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
// attrs). frac <= 0 disables hot detection; govern and onRows may be nil.
func NewExchange(srcs []Iterator, attrs []string, key, p, size int, frac float64, govern func(*relation.Relation), onRows func(int), m *Metrics) *Exchange {
	e := &Exchange{
		attrs:  attrs,
		key:    key,
		p:      p,
		size:   sizeOr(size),
		chunk:  bufferedChunkRows(sizeOr(size)),
		frac:   frac,
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

// Hot reports whether shard k was flagged hot (sticky).
func (e *Exchange) Hot(k int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pend[k].hot
}

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
// sealing chunks that reach chunk size, and updates hot flags. Called with
// the lock held; the rows are copied, so the source may reuse the batch.
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
		q.scattered++
		if q.open.n == e.chunk {
			e.seal(q)
		}
	}
	e.total += b.N
	if e.onRows != nil {
		e.onRows(b.N)
	}
	if e.frac > 0 && e.total >= hotMinRows {
		for _, q := range e.pend {
			if !q.hot && float64(q.scattered) > e.frac*float64(e.total) {
				q.hot = true
			}
		}
	}
}

// seal converts the unconsumed rows of q's full open chunk into a governed
// chunk relation, built on the chunk's columns without a copy.
func (e *Exchange) seal(q *pendQueue) {
	if n := q.open.n - q.openRead; n > 0 {
		r := relation.NewFromColumns("exchange", e.attrs, window(q.open.cols, q.openRead, q.open.n))
		e.m.materialized(n, len(e.attrs))
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
		e.m.emitted(n, len(e.attrs))
		return out
	}
	n := min(q.open.n-q.openRead, e.size)
	for i, col := range q.open.cols {
		out.Cols[i] = col[q.openRead : q.openRead+n : q.openRead+n]
	}
	q.openRead += n
	out.N = n
	e.m.emitted(n, len(e.attrs))
	return out
}

// shardOf mirrors shard.ShardOf: the assignment must match the hash
// shard.Partition uses, so an exchanged pipeline part and the partitioned
// probe-side shard it meets hold the same values. Kept local to avoid an import cycle (the shard
// package composes batch pipelines).
func shardOf(v relation.Value, p int) int {
	h := uint64(uint32(v)) * 0x9E3779B1
	return int((h >> 16) % uint64(p))
}

// Grow merges the output of one or two replicated pipeline chains over a
// shared concurrent-safe source (an Exchange part): mk builds a chain each
// time it is called, the first at the first pull, a second — counted via
// onSplit — as soon as hot() reports the source's shard has gone hot. Both
// chains drain into a small channel, so a skewed shard's probe work splits
// across two workers while the exchange is still scattering, instead of
// materializing the hot shard whole and slicing it afterwards. Batches are
// deep-copied across the goroutine boundary, into copies the consumer
// hands back for reuse by calling Next again; row order across a split is
// unspecified (downstream stages are order-insensitive).
//
// The context of the first Next call drives the producer goroutines;
// streamed plans pull a pipeline under one context for its lifetime. A
// panic in one chain stops the others, and Next raises it again on the
// consumer's goroutine with the chain's stack (as pool.Run does).
func Grow(mk func() Iterator, attrs []string, hot func() bool, onSplit func()) Iterator {
	return &growIter{mks: []func() Iterator{mk}, mk: mk, attrs: attrs, hot: hot, onSplit: onSplit}
}

// Fan merges several independently produced chains into one iterator: every
// maker's chain runs in its own goroutine from the first pull, batches are
// deep-copied (into recycled copies, as for Grow) into a shared channel,
// and the merged stream ends when all
// chains do. Row order across chains is unspecified, and a chain's panic
// surfaces from Next as for Grow. Used to split a hot probe relation into
// row blocks, each probed by its own chain over a replayable copy of the
// shared input.
func Fan(mks []func() Iterator, attrs []string) Iterator {
	return &growIter{mks: mks, attrs: attrs}
}

type growIter struct {
	mks     []func() Iterator // chains started at the first pull
	mk      func() Iterator   // extra chain built when hot fires (nil: fixed)
	attrs   []string
	hot     func() bool
	onSplit func()

	once   sync.Once
	ch     chan *handoff
	free   chan *handoff // copies the consumer released, for reuse
	held   *handoff      // the copy the consumer's last Next returned
	wg     sync.WaitGroup
	cancel context.CancelFunc
	split  bool
	mu     sync.Mutex
	err    error
	crash  error // a chain's panic, raised again by Next
}

func (g *growIter) Attrs() []string { return g.attrs }

func (g *growIter) start(ctx context.Context) {
	ctx, g.cancel = context.WithCancel(ctx)
	// Two slots: each chain of the usual two-way split can park one
	// deep-copied batch while the consumer works on the previous one. The
	// free list keeps as many released copies, so a chain in steady state
	// finds one to refill instead of allocating.
	g.ch = make(chan *handoff, 2)
	g.free = make(chan *handoff, 2)
	g.wg.Add(len(g.mks))
	for _, mk := range g.mks {
		go g.run(ctx, mk)
	}
	go func() {
		g.wg.Wait()
		g.cancel()
		close(g.ch)
	}()
}

// fail records a chain's error; the first one wins.
func (g *growIter) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// run builds one chain with mk and drains it into the channel. A panic in
// the chain would kill the process from this bare goroutine, so it is
// recovered, the sibling chains are stopped, and Next raises it again on
// the consumer's goroutine with the chain's stack.
func (g *growIter) run(ctx context.Context, mk func() Iterator) {
	defer g.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			crash := pool.Recovered(v)
			g.mu.Lock()
			if g.crash == nil {
				g.crash = crash
			}
			g.mu.Unlock()
			g.cancel()
		}
	}()
	it := mk()
	for {
		b, err := it.Next(ctx)
		if err != nil {
			g.fail(err)
			return
		}
		if b == nil {
			return
		}
		var h *handoff
		select {
		case h = <-g.free:
		default:
			h = &handoff{}
		}
		h.fill(b)
		select {
		case g.ch <- h:
		case <-ctx.Done():
			g.fail(ctx.Err())
			return
		}
		g.mu.Lock()
		grow := !g.split && g.hot != nil && g.hot()
		if grow {
			g.split = true
		}
		g.mu.Unlock()
		if grow {
			if g.onSplit != nil {
				g.onSplit()
			}
			g.wg.Add(1)
			go g.run(ctx, g.mk)
		}
	}
}

// Next releases the copy its last call returned — the iterator contract
// ends its validity here — and returns the next one.
func (g *growIter) Next(ctx context.Context) (*Batch, error) {
	g.once.Do(func() { g.start(ctx) })
	if g.held != nil {
		select {
		case g.free <- g.held:
		default:
		}
		g.held = nil
	}
	h, ok := <-g.ch
	if ok {
		g.held = h
		return &h.Batch, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crash != nil {
		panic(g.crash)
	}
	return nil, g.err
}

// handoff is a deep copy of a chain's batch on its way to the consumer of
// a Grow or Fan. Its columns come from one slab, which later copies reuse
// once the consumer has released this one.
type handoff struct {
	Batch
	rows block
}

// fill copies b's rows into h, reallocating only when b is longer than any
// batch h held before.
func (h *handoff) fill(b *Batch) {
	if h.rows.cols == nil || h.rows.cap < b.N {
		h.rows = newBlock(len(b.Cols), b.N)
		h.Cols = make([][]relation.Value, len(b.Cols))
	}
	h.rows.n = 0
	h.rows.put(b, 0)
	for c, col := range h.rows.cols {
		h.Cols[c] = col[:b.N]
	}
	h.N = b.N
}
