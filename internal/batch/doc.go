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
// are plain slices, so an append-based copy is one line; clone exists for
// the goroutine-handoff case). Holding a partially consumed input batch
// between an operator's own Next calls is legal — the input is only pulled
// again once the hold is spent — which is how Project and JoinProbe resume
// mid-batch when their output fills.
//
// Every stage preserves set semantics: a pipeline over distinct rows emits
// distinct rows. Project is the one stage that keeps state across batches,
// a dedup set of the rows it has emitted, and only when it drops a column;
// a projection that keeps every column (reordered or repeated) is
// injective, so it runs as Keep. The set keys rows of one or two columns
// by a packed uint64 and wider rows by byte strings.
//
// Batches are views: columns may alias a relation's storage (Scan, replay)
// or an upstream batch (Keep, Semijoin pass-through). N may be short; only
// Cols[c][:N] is meaningful. Iterators are single-consumer unless
// documented otherwise — Exchange parts are the concurrent-safe exception,
// which is what Grow replicates a chain over.
//
// # Rewind semantics
//
// Some inputs must be iterated more than once (probe sides, semijoin
// filters, down-pass parents). Buffered tees a pipeline into chunk
// relations as it is pulled; once the source is drained — and only then —
// Rewind replays the recorded rows and Rel flattens them into one relation
// (counted as a buffered fallback in Metrics). Rewind before end of stream
// panics rather than silently replaying a prefix.
//
// # Governor registration
//
// Pipelines still create relations at three points: sealed chunks
// of a Buffered tee, sealed chunks of an Exchange's output shards, and
// Materialize sinks. Each is handed to a govern callback as it is created,
// so residency registers with the spill.Governor incrementally — chunk by
// chunk while the stream flows — and the governor can evict cold chunks
// while the pipeline is still running. Replays Pin each chunk only for the
// duration of a single batch cut, so a parked chunk is reloaded at most
// once per pass and never held resident whole.
package batch
