package batch

// The sink: pipelines drained into one flat relation through pooled
// staging chunks.

import (
	"context"
	"sync"

	"cqbound/internal/metrics/counter"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
)

// stageValues is the size of a staging chunk in values (16 KiB). A chunk
// for arity a holds per = stageValues/a rows, column c at
// [c·per, (c+1)·per). Small chunks keep a small sink's staging in cache:
// with 256 KiB chunks a round of millisecond queries ran 5-9 % slower,
// while large answers drained equally fast at either size.
const stageValues = 1 << 12

// stagePool lends staging chunks to every sink in the process, so a sink
// allocates staging only when the pool runs dry. It holds *[]Value so a
// Put does not allocate.
var stagePool = sync.Pool{New: func() any {
	s := make([]relation.Value, stageValues)
	return &s
}}

// staging is one part's drained rows: chunks of per rows each, all full
// but the last.
type staging struct {
	arity, per int
	chunks     []*[]relation.Value
	rows       int
}

func newStaging(arity int) staging {
	st := staging{arity: arity}
	if arity > 0 {
		st.per = max(stageValues/arity, 1)
	}
	return st
}

// chunk returns an empty chunk: a pooled one, or a fresh one for an arity
// too wide for a pooled chunk to hold a row.
func (st *staging) chunk() *[]relation.Value {
	if st.arity > stageValues {
		s := make([]relation.Value, st.arity)
		return &s
	}
	return stagePool.Get().(*[]relation.Value)
}

// drain pulls it to end of stream into chunks. Arity 0 has no column to
// stage and only counts rows.
func (st *staging) drain(ctx context.Context, it Iterator) error {
	for {
		b, err := it.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		if st.arity == 0 {
			st.rows += b.N
			continue
		}
		for i := 0; i < b.N; {
			at := st.rows % st.per
			if at == 0 {
				st.chunks = append(st.chunks, st.chunk())
			}
			dst := *st.chunks[len(st.chunks)-1]
			n := min(b.N-i, st.per-at)
			for c, col := range b.Cols {
				copy(dst[c*st.per+at:], col[i:i+n])
			}
			i += n
			st.rows += n
		}
	}
}

// copyTo copies the staged rows into cols from row at on.
func (st *staging) copyTo(cols [][]relation.Value, at int) {
	for j, chunk := range st.chunks {
		n := min(st.per, st.rows-j*st.per)
		for c := range cols {
			copy(cols[c][at:at+n], (*chunk)[c*st.per:c*st.per+n])
		}
		at += n
	}
}

// release returns the pooled chunks.
func (st *staging) release() {
	for _, chunk := range st.chunks {
		if len(*chunk) == stageValues {
			stagePool.Put(chunk)
		}
	}
	st.chunks = nil
}

// Materialize drains a pipeline into a relation named name: the one-part
// case of MaterializeParts.
func Materialize(ctx context.Context, it Iterator, name string, govern func(*relation.Relation), m *counter.Set) (*relation.Relation, error) {
	return MaterializeParts(ctx, []Iterator{it}, name, govern, m)
}

// MaterializeParts drains pipelines over one schema into a single relation
// named name: part 0's rows first, then part 1's, and so on. its must not
// be empty. The parts must together produce distinct rows (every stage in
// this package preserves set semantics, and the parts of a pipeline scan
// disjoint rows or, after an exchange, disjoint keys), so the sink copies
// rows without a dedup pass. govern, when non-nil, is applied to the built
// relation before it is returned — registration with a spill governor and
// evaluation scope.
//
// The parts drain in parallel on internal/pool into staging chunks lent
// by a process-wide pool. Then the relation's columns are allocated once,
// at their exact size, and each part's chunks are copied in after the
// parts before it. Every row is written twice but allocated once: what a
// sink allocates beyond its output is what the pool cannot lend.
func MaterializeParts(ctx context.Context, its []Iterator, name string, govern func(*relation.Relation), m *counter.Set) (*relation.Relation, error) {
	attrs := its[0].Attrs()
	parts := make([]staging, len(its))
	for k := range parts {
		parts[k] = newStaging(len(attrs))
	}
	// pool.Run returns only once no drain is running, on error and cancel
	// too, so no chunk goes back to the pool while a drain writes it.
	defer func() {
		for k := range parts {
			parts[k].release()
		}
	}()
	if err := pool.Run(ctx, 0, len(its), func(k int) error { return parts[k].drain(ctx, its[k]) }); err != nil {
		return nil, err
	}
	rows := 0
	for _, st := range parts {
		rows += st.rows
	}
	if rows == 0 {
		return relation.New(name, attrs...), nil
	}
	var out *relation.Relation
	if len(attrs) == 0 {
		out = relation.New(name)
		out.MustInsert()
	} else {
		cols := columns(len(attrs), rows)
		at := 0
		for _, st := range parts {
			st.copyTo(cols, at)
			at += st.rows
		}
		out = relation.NewFromColumns(name, attrs, cols)
	}
	materialized(m, rows, len(attrs))
	if govern != nil {
		govern(out)
	}
	return out, nil
}
