// Package relation is a small in-memory relational engine: named relations
// with set semantics (duplicate tuples are eliminated), selection,
// projection, renaming, unions, products, and index-backed natural, equi
// and semi joins. It is the substrate on which queries are evaluated and
// the paper's worst-case instances are materialized and measured.
//
// # Storage
//
// Storage is interned and columnar: every field value is a fixed-width
// Value (an ID into a Dict, see dict.go) and each attribute is stored as a
// contiguous []Value column. Every hashed tuple set is a KeyTable
// (keytable.go), a flat open-addressing table of fixed-width rows of IDs
// that probes read straight from columns: the distinct keys of a hash
// index, and the set-semantics dedup — the row table keyed on every
// column, in which row i has id i. Renaming and cloning share column
// storage copy-on-write, so deriving a differently-named view of a base
// relation (the hot path of query evaluation) is O(arity), not O(n·arity).
//
// # The memo table
//
// Every derived structure a relation serves — per-column distinct counts
// (stats.go), per-column value ranges (ranges.go), hash indexes
// (index.go) — which joins and the generic join's prefix search share —
// and internal/shard's partitions — lives in one mutex-guarded, size-keyed
// memo table (Relation.Memo):
//
//   - Entries record the relation size they were built at, so an insert
//     invalidates implicitly: the next reader rebuilds.
//   - Clone/Rename views delegate memo calls to the relation whose storage
//     they share (until they diverge by insertion), so one stored row set
//     has one set of memos no matter how many named views serve it. This
//     is why internal/shard memoizes partitions per (key, P) "on the
//     relation memo table" and every binding view of a base relation sees
//     them.
//   - Builders run outside the lock but are single-flight per key:
//     concurrent readers of a missing entry share one build. (Partition
//     builds register spill-governed shards, so a duplicate build would
//     leak governor registrations — duplicates are prevented, not
//     tolerated.)
//
// Views produced by ProjectView share storage without a memo parent —
// their column positions differ from the base, so delegation would serve
// wrong answers; they build their own memos.
//
// # Versions: frozen relations and delta extension
//
// The transactional layer (the root package's epoch store) needs relation
// versions that never change under a reader. Freeze marks a relation
// immutable — Insert fails, mutation must go through a transaction — and
// Extend builds the next version from a frozen base plus a delta of new
// rows (delta.go). The successor reuses the base's backing arrays when it
// is the first extension of that base and appends in place (old readers
// are bounded by their own row counts); a second extension of the same
// base, or one whose base shares or governs its storage, clips to fresh
// arrays so sibling versions never fork each other's spare capacity.
//
// A commit extends rows; each epoch builds its memos lazily on first
// read. A successor starts with an empty memo table, and the base's memos
// are never written, so readers of the old epoch keep probing them.
// EachMemo exposes every entry — stale ones included — so the epoch sweep
// can reclaim governed buffers that invalidation orphaned. The commit
// writer keeps a RowTable per version chain, which keeps set semantics
// O(delta) per committed batch.
//
// Every relation can also carry a private Dict (NewIn, AdoptDict, Dict):
// engines intern transactional ingest in their own dictionary, and the
// process-wide default is only the convenience for free-standing use —
// Dict.CompactInto supports rewriting a live epoch against a fresh table.
//
// # The column-buffer seam
//
// Column storage sits behind ColumnBuffer: plain relations hold resident
// []Value slices, while a relation handed to a spill governor (Govern)
// holds a spill.Buffer whose columns may be parked in a file-backed
// segment between uses. All reads flow through one internal accessor that
// reloads parked columns on demand; Pin/Unpin hold them resident across
// an operator (Gather, Concat, index builds, HashJoin and
// semijoin probes pin their inputs). Clone/Rename views borrow the buffer
// itself rather than its arrays, so views never force a parked parent
// resident; the first mutation copies the columns out and releases the
// buffer — governed relations are read-only by contract until then.
//
// # Concurrency
//
// A Relation is safe for concurrent readers (statistics, indexes and memos
// are mutex-guarded), and a single writer may insert while no reader is
// using the relation. Mutating a relation concurrently with readers of it
// — or of views sharing its storage — is a data race. Operators whose
// outputs are distinct by construction (joins of set-semantics inputs,
// Gather/Concat of disjoint parts) skip the row table
// entirely and build it lazily, under one pin, only if Insert, Has or
// Equal later needs it.
package relation
