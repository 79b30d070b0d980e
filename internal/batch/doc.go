// Package batch implements pull-based vectorized execution: pipelines of
// composable iterators moving fixed-size column batches of interned
// relation.Values, so an operator chain holds one batch per stage and
// never a whole intermediate relation. It is what every join-project and
// Yannakakis evaluation runs on; internal/shard decides how many pipelines
// run side by side and where rows cross between them.
//
// # Iterator contract
//
// An Iterator produces batches via Next(ctx): (*Batch, nil) for data,
// (nil, nil) for end of stream, (nil, err) on failure, after which the
// iterator is dead. The batch and its column slices are OWNED BY THE
// ITERATOR and valid only until the following Next call on that iterator —
// stages reuse their output buffers, and scans alias relation storage. A
// consumer that retains rows across pulls must copy them out (Batch columns
// are plain slices, so a copy is one line per column). Holding a partially
// consumed input batch between an operator's own Next calls is legal — the
// input is only pulled again once the hold is spent — which is how Project
// and JoinProbe resume mid-batch when their output fills. JoinProbe writes
// its output a column at a time from selection vectors of (left row, right
// row) pairs, so before it pulls the next left batch it gathers the rows it
// selected from the one it holds.
//
// Every stage preserves set semantics: a pipeline over distinct rows emits
// distinct rows. Project is the one stage that keeps state across batches,
// a dedup set of the rows it has emitted, and only when it drops a column;
// a projection that keeps every column (reordered or repeated) is
// injective, so it only reslices the columns. The set is a
// relation.KeyTable, which stores every row inline in one arena whatever
// its width — or, for ProjectDense, a DenseSet: a bitmap with one bit per
// combination of the kept columns' values, fixed in size before the first
// row, whose bit indexes are computed a kept column at a time.
// ProjectDenseParts deduplicates several parts against each other without
// an exchange: each marks a private bitmap, and the merged bitmap is
// decoded into the output parts.
//
// Batches are views: columns may alias a relation's storage (Scan, a
// sealed exchange chunk) or an upstream batch (a covering Project, a
// Semijoin with no shared column). N may be short; only Cols[c][:N] is
// meaningful. Iterators are single-consumer unless documented otherwise —
// Exchange parts are the concurrent-safe exception. A pipeline is pulled once: an input needed
// again (a probe side, a semijoin filter, a down-pass parent) is
// materialized into a relation first.
//
// The package starts no goroutine. Pipelines run on the goroutine that
// pulls them; the parallel drains (MaterializeParts' parts,
// ProjectDenseParts' inputs) go through internal/pool.
//
// # Governor registration
//
// Pipelines create relations at two points: sealed chunks of an
// Exchange's output shards, and Materialize/MaterializeParts sinks. Each
// allocates its rows once: a chunk is one slab of chunk rows × arity
// written by index, sealed without a copy, and a sink stages rows in
// chunks lent by a process-wide sync.Pool, then copies them once into one
// exact slab, every part at its offset. Each is handed to a govern
// callback as it is created, so residency registers with the
// spill.Governor incrementally — chunk by chunk while the stream flows —
// and the governor can evict cold chunks while the pipeline is still
// running. A part cutting a batch from a sealed chunk pins it only for
// that cut, so a parked chunk is reloaded at most once per batch and never
// held resident whole. The staging chunks are not governed: the pool holds
// about one answer's staging between sinks.
package batch
