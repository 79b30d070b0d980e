// Package spill is the memory governor behind Engine.WithMemoryBudget: a
// byte budget over registered column buffers plus a disk-backed segment
// store that parks cold buffers in files and loads them back on demand.
//
// # The unit of spilling
//
// The spillable unit is one Buffer — in practice the columns of one
// partition shard (internal/shard registers every shard it builds when the
// engine has a budget). Columns are flat uint32 arrays, so a segment is
// simply each column's values in order, fixed-width little-endian: the
// storage format is the file format, and a reload is one read plus a
// widening loop, no decoding. A governor keeps every segment in one spill
// file, in power-of-two slots that are reused once freed: parking a buffer
// is one positioned write, not a file created, renamed and later deleted,
// which on ext4 cost a metadata update whose latency varied run to run.
//
// # The pin/unpin contract
//
// Buffer.Cols returns the resident columns, reloading the segment first if
// the buffer is parked. The returned arrays are an immutable snapshot:
// managed columns are never mutated, eviction only drops the buffer's
// reference, so arrays fetched before an eviction stay valid and correct
// for as long as the caller holds them.
//
// Buffer.Pin is Cols plus a residency hold: until the matching Unpin the
// governor will not evict the buffer. Operators pin their inputs for their
// duration (relation.Gather/Index/HashJoin/SemijoinOn pin the relations
// they scan; internal/batch stages pin what they read one batch at a time)
// so a shard is never written out and read back mid-read.
// Pins nest and are cheap (one atomic add); they are a thrash guard and an
// LRU recency signal, not a correctness requirement.
//
// # Eviction policy
//
// Registration and reloads account resident bytes; when the total exceeds
// the budget the governor walks registered buffers least-recently-used
// first (recency list reusing internal/lru) and parks every unpinned one
// until residency is back under budget. A segment, once written, outlives
// reloads — re-evicting an unchanged buffer is a free pointer drop — and
// its slot is freed only when the buffer is released (its relation is
// mutated, or the governor closed) or discarded. If parking every
// unpinned buffer is not enough, the pass simply ends over budget.
//
// The budget is a target, never a hard cap: pinned buffers stay resident
// even over budget, so enforcement cannot deadlock an operator against its
// own working set. Eviction is also best-effort — a failed segment write
// keeps the data resident rather than failing the query, and counts in
// spill_evict_failures, not spill_evictions.
//
// # Buffer lifecycle
//
// Memoized base partitions register once and live until their relation is
// mutated (Release restores plain storage) or the governor is Closed. A
// query's intermediate shards would otherwise accumulate forever, so they
// are tracked in a per-evaluation Scope and bulk-Discarded — slot freed,
// accounting dropped, no reload — once the evaluation's output has been
// materialized; a long-lived engine's registry, resident bytes and spill
// file therefore plateau at the base partitions
// (the spill_registered_buffers gauge makes this observable).
//
// Under the engine's epoch store, base partitions retire with their
// epoch: each epoch builds its own partitions on first read (a relation a
// commit left unchanged keeps its registered ones), and the retirement
// sweep Discards every buffer reachable only from reclaimed epochs,
// stale partition memos included. Registered buffers and bytes on disk
// thus return to the live snapshot's footprint after each epoch drains,
// which the regression tests assert.
//
// # Budget reservations
//
// A serving front-end admits queries against the same budget the governor
// evicts toward: before a query runs, its planner-derived worst-case size
// estimate is Reserved out of the budget, and the admission controller
// (internal/serve) queues or rejects work whose reservation no longer
// fits. Reservations are pure accounting — the spill_reserved_bytes gauge next to
// ResidentBytes shows committed versus actual memory — and never gate the
// governor's own eviction, so an admitted query can still run (and spill)
// past its estimate rather than wedge. Unreserve returns the slice when
// the query releases its admission ticket.
//
// # What is never spilled
//
// Only registered column buffers spill. Hash indexes, row tables and
// column statistics (the relation memo table and its KeyTables), in-flight
// exchange streams mid-operator, and the flat relations callers hold
// directly are never parked; a shard's derived structures are rebuilt from
// the reloaded columns if needed. Spill directories are private per
// governor (a fresh MkdirTemp under the configured dir), so stale files
// left by a crashed process are never read and a fresh Engine ignores
// them.
package spill
