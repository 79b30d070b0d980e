package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span in the execution tree.
type Kind string

// Span kinds, one per plan stage and operator class.
const (
	KindEvaluate Kind = "evaluate" // root span of one evaluation
	KindPlan     Kind = "plan"     // analysis + strategy choice (cache hit or miss)
	KindStage    Kind = "stage"    // executor phase: bindings, semijoin pass, join pass, ...
	KindScan     Kind = "scan"     // base-relation binding scan
	KindSemijoin Kind = "semijoin" // semijoin reducer pass over one edge
	KindJoin     Kind = "join"     // natural-join probe (one plan step or tree node)
	KindProject  Kind = "project"  // duplicate-eliminating projection
	KindExchange Kind = "exchange" // shard repartition (rows moved between partitions)
	KindSink     Kind = "sink"     // pipeline drain into a materialized relation
)

// estUnset marks a span with no planner estimate; Render prints "est=?".
const estUnset = -1

// Span is one node of the execution tree. The creating goroutine owns the
// identity fields (Kind, Name) and the single-writer annotations (SetNote,
// SetEst, SetShards, AddSpill); row/batch counters are atomic because pool
// workers of one operator add to them concurrently. A nil *Span is inert.
type Span struct {
	kind Kind
	name string

	// Single-writer annotations (set by the creating executor goroutine
	// before the span is read by Finish/Render).
	note   string
	est    float64 // planner/paper estimate of output rows; estUnset if none
	shards int     // fan-out: partitions this operator ran over (0 = flat)

	evictions int64 // governed buffers parked to disk during this span
	reloads   int64 // governed buffers faulted back during this span

	start time.Time
	dur   atomic.Int64 // wall nanoseconds; 0 while still open

	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	batches atomic.Int64

	// open counts pipeline parts still running after Arm; the span ends
	// when the last part calls Done. armed distinguishes "never armed"
	// from "armed with zero parts".
	open  atomic.Int64
	armed atomic.Bool

	mu       sync.Mutex
	children []*Span
}

func newSpan(kind Kind, name string) *Span {
	return &Span{kind: kind, name: name, est: estUnset, start: time.Now()}
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span, recording wall time since creation. Later calls
// (including the force-close in Finish) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1
	}
	s.dur.CompareAndSwap(0, int64(d))
}

// Arm declares that the span's work is spread over n lazy pipeline parts;
// the span ends when all n have called Done. Arm(0) ends immediately.
func (s *Span) Arm(n int) {
	if s == nil {
		return
	}
	s.armed.Store(true)
	if s.open.Add(int64(n)) == 0 {
		s.End()
	}
}

// Done reports end-of-stream for one armed pipeline part.
func (s *Span) Done() {
	if s == nil {
		return
	}
	if s.open.Add(-1) == 0 && s.armed.Load() {
		s.End()
	}
}

// AddIn adds n input rows.
func (s *Span) AddIn(n int) {
	if s != nil {
		s.rowsIn.Add(int64(n))
	}
}

// AddOut adds n output rows.
func (s *Span) AddOut(n int) {
	if s != nil {
		s.rowsOut.Add(int64(n))
	}
}

// AddBatch records one pulled column batch of n rows (output side).
func (s *Span) AddBatch(n int) {
	if s != nil {
		s.batches.Add(1)
		s.rowsOut.Add(int64(n))
	}
}

// SetNote attaches a short free-form annotation (routing decision,
// cache disposition, bound formula).
func (s *Span) SetNote(note string) {
	if s != nil {
		s.note = note
	}
}

// SetEst records the planner's (or the paper bound's) estimate of this
// span's output size.
func (s *Span) SetEst(rows float64) {
	if s != nil {
		s.est = rows
	}
}

// SetShards records the partition fan-out the operator executed over.
func (s *Span) SetShards(p int) {
	if s != nil {
		s.shards = p
	}
}

// AddSpill records governor activity attributed to this span: buffers
// evicted to disk and buffers reloaded from it.
func (s *Span) AddSpill(evictions, reloads int64) {
	if s == nil {
		return
	}
	s.evictions += evictions
	s.reloads += reloads
}

// Accessors (all nil-safe, for render and tests).

// SpanKind returns the span's kind.
func (s *Span) SpanKind() Kind {
	if s == nil {
		return ""
	}
	return s.kind
}

// Name returns the span's display name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Note returns the free-form annotation, if any.
func (s *Span) Note() string {
	if s == nil {
		return ""
	}
	return s.note
}

// RowsIn returns the input-row count.
func (s *Span) RowsIn() int64 {
	if s == nil {
		return 0
	}
	return s.rowsIn.Load()
}

// RowsOut returns the output-row count.
func (s *Span) RowsOut() int64 {
	if s == nil {
		return 0
	}
	return s.rowsOut.Load()
}

// Batches returns how many column batches the span emitted.
func (s *Span) Batches() int64 {
	if s == nil {
		return 0
	}
	return s.batches.Load()
}

// Est returns the recorded estimate and whether one was set.
func (s *Span) Est() (float64, bool) {
	if s == nil || s.est == estUnset {
		return 0, false
	}
	return s.est, true
}

// Shards returns the recorded partition fan-out (0 = flat execution).
func (s *Span) Shards() int {
	if s == nil {
		return 0
	}
	return s.shards
}

// Spill returns governed evictions and reloads attributed to the span.
func (s *Span) Spill() (evictions, reloads int64) {
	if s == nil {
		return 0, 0
	}
	return s.evictions, s.reloads
}

// Duration returns the span's wall time (0 if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// forceEnd closes s and every descendant still open (error paths,
// abandoned pipelines).
func (s *Span) forceEnd() {
	s.End()
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.forceEnd()
	}
}

// Tracer collects the span tree of a single evaluation. A nil *Tracer is
// inert: Stage and Op return nil spans and Finish returns nil, so the
// execution stack instruments unconditionally.
type Tracer struct {
	root     *Span
	stage    atomic.Pointer[Span]
	query    string
	strategy string
	reqID    string
	start    time.Time
}

// NewTracer starts a trace for one evaluation of query (its display text).
func NewTracer(query string) *Tracer {
	t := &Tracer{query: query, start: time.Now()}
	t.root = newSpan(KindEvaluate, "evaluate")
	return t
}

// Root returns the evaluation's root span.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SetStrategy records the chosen plan strategy for the trace header.
func (t *Tracer) SetStrategy(s string) {
	if t != nil {
		t.strategy = s
	}
}

// SetRequestID records the serving-path correlation ID so the rendered
// trace and the slow-query record carry the same ID as the HTTP access
// log and /debug/requests.
func (t *Tracer) SetRequestID(id string) {
	if t != nil {
		t.reqID = id
	}
}

// Stage opens a new stage span under the root and makes it current:
// subsequent Op calls attach to it. Stages are sequential within an
// evaluation; the caller Ends the stage (Finish force-closes stragglers).
func (t *Tracer) Stage(kind Kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(kind, name)
	t.root.addChild(s)
	t.stage.Store(s)
	return s
}

// Op opens an operator span under the current stage (or the root when no
// stage is open). Safe to call from pool workers inside one stage.
func (t *Tracer) Op(kind Kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(kind, name)
	parent := t.stage.Load()
	if parent == nil {
		parent = t.root
	}
	parent.addChild(s)
	return s
}

// Finish freezes the trace: the root and any span left open are closed,
// and the immutable Trace is returned. The Tracer must not be used after.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.root.forceEnd()
	return &Trace{
		Query:     t.query,
		Strategy:  t.strategy,
		RequestID: t.reqID,
		Start:     t.start,
		Duration:  t.root.Duration(),
		Root:      t.root,
	}
}

// Trace is a finished evaluation trace: the frozen span tree plus the
// per-query deltas of the engine's counters, the nonzero ones, keyed by
// their registry names (stream_rows, cache_hits, ...).
type Trace struct {
	Query     string           `json:"query"`
	Strategy  string           `json:"strategy"`
	RequestID string           `json:"request_id,omitempty"`
	Start     time.Time        `json:"start"`
	Duration  time.Duration    `json:"duration_ns"`
	Root      *Span            `json:"-"`
	Deltas    map[string]int64 `json:"deltas,omitempty"`
}

// SpanCount returns the number of spans in the tree (root included).
func (t *Trace) SpanCount() int {
	if t == nil || t.Root == nil {
		return 0
	}
	var count func(*Span) int
	count = func(s *Span) int {
		n := 1
		for _, c := range s.Children() {
			n += count(c)
		}
		return n
	}
	return count(t.Root)
}
