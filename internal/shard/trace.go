package shard

// Tracing hooks for the piped operators. Pipelines are lazy — the work
// a JoinPipedStream sets up happens while the final sink drains — so their
// operator spans can't be timed by the constructor. Instead the executor
// attaches a span to the Piped it gets back (TracePiped): every part is
// wrapped in a counting tap, the span is armed with the part count, and it
// closes when the last part reports end-of-stream. A projection's
// exchange likewise feeds a span through the scatter's row callback.

import (
	"context"

	"cqbound/internal/batch"
	"cqbound/internal/trace"
)

// TracePiped attaches sp to pd: the span records the part fan-out (and a
// projection's dedup set, as its note), counts every batch and row the
// pipelines emit, and ends when all parts reach end-of-stream. Returns pd
// for chaining; with a nil span (tracing off) pd is returned untouched.
func TracePiped(pd *Piped, sp *trace.Span) *Piped {
	if sp == nil || pd == nil {
		return pd
	}
	sp.SetShards(len(pd.parts))
	if pd.dedup != "" {
		sp.SetNote(pd.dedup)
	}
	sp.Arm(len(pd.parts))
	for k, part := range pd.parts {
		pd.parts[k] = &traceTap{src: part, sp: sp}
	}
	return pd
}

// traceTap counts one part's batches and rows into a span and reports its
// end-of-stream. Each part has a single consumer, so the done flag needs
// no lock; the span's counters are atomic across parts.
type traceTap struct {
	src  batch.Iterator
	sp   *trace.Span
	done bool
}

func (t *traceTap) Attrs() []string { return t.src.Attrs() }

func (t *traceTap) Next(ctx context.Context) (*batch.Batch, error) {
	b, err := t.src.Next(ctx)
	if b != nil {
		t.sp.AddBatch(b.N)
		return b, err
	}
	if !t.done {
		t.done = true
		t.sp.Done()
	}
	return b, err
}

// exchangeCount returns the row callback a projection's exchange feeds:
// always the shared exchanged_rows counter and, under tracing, an exchange
// span as well. The span has no natural close of its own — the scatter is
// as lazy as the pipeline around it — so Finish closes it with the
// evaluation.
func exchangeCount(opts *Options, col string, p int) func(int) {
	m := opts.metrics()
	tr := opts.Tracer()
	if tr == nil {
		return func(n int) { m.Add(exchangedRows, int64(n)) }
	}
	sp := tr.Op(trace.KindExchange, "exchange pipeline on "+col)
	sp.SetShards(p)
	sp.SetNote("mid-stream scatter")
	return func(n int) {
		m.Add(exchangedRows, int64(n))
		sp.AddOut(n)
	}
}
