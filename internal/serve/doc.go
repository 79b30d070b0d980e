// Package serve holds the engine-agnostic building blocks of the cqserve
// HTTP front-end: an admission controller that rations the spill governor's
// memory budget across concurrent queries, and an epoch-keyed result cache.
// The HTTP server itself (root package, serve.go) composes these with the
// Engine; this package stays below the root so the server's tests can drive
// it through the public API.
//
// # Admission
//
// The paper's size bounds make admission control principled rather than
// reactive: a query's worst-case output (Σ|Rᵢ| for Yannakakis, rmax^C of
// Thm 4.4 for project-early, the AGM bound rmax^ρ* for the generic join)
// is known from the plan alone, before a single tuple is joined. The
// controller converts that bound to a byte reservation and admits the query
// only while total reservations fit the budget; otherwise the request waits
// in a bounded FIFO queue or is rejected (HTTP 429) when the queue is full.
// Work is therefore shed at the door instead of discovered mid-flight by a
// thrashing governor. Reservations are mirrored into the governor's
// Reserve/Unreserve accounting so /metrics shows committed next to actual
// resident bytes. An estimate larger than the whole budget is clamped to
// it: such a query is not unservable (the governor spills), it just runs
// alone.
//
// # The result cache
//
// Query results are immutable for a fixed database version, so the cache
// key is (query text, epoch). A Commit that advances the live epoch
// invalidates nothing explicitly; new requests simply miss under the new
// epoch, and a periodic sweep drops entries whose epoch is no longer live
// or pinned by a held snapshot. A reader holding an old Snapshot keeps
// hitting its own epoch's entries, which is exactly the isolation Commit
// promises.
//
// An entry is the encoded answer, not its rows: cqserve writes the JSON of
// "rows", "attrs" and "tuples" once, straight from the result relation's
// columns, and every reply — miss or hit — writes those bytes unchanged
// between the per-request members. A hit therefore costs the same few
// allocations whatever the answer's size.
package serve
