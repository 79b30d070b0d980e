package cqbound

import (
	"context"
	"sync"
	"sync/atomic"

	"cqbound/internal/batch"
	"cqbound/internal/core"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/lru"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/obs"
	"cqbound/internal/plan"
	"cqbound/internal/pool"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// Planner types (internal/plan).
type (
	// Plan records the strategy chosen for a query, the structural facts
	// that justified it, and the join order when one was computed.
	Plan = plan.Plan
	// Strategy identifies an evaluation algorithm.
	Strategy = plan.Strategy
)

// Re-exported strategies.
const (
	// StrategyYannakakis evaluates α-acyclic queries by semijoin reduction
	// and a join pass that projects each subtree result onto its parent
	// interface plus the head: O(input + output) when the head keeps every
	// variable.
	StrategyYannakakis = plan.StrategyYannakakis
	// StrategyProjectEarly is the Corollary 4.8 join-project plan along a
	// planner-chosen atom order.
	StrategyProjectEarly = plan.StrategyProjectEarly
	// StrategyGenericJoin is the worst-case optimal variable-at-a-time join
	// backed by the AGM bound.
	StrategyGenericJoin = plan.StrategyGenericJoin
)

// Engine plans and evaluates conjunctive queries, caching one structural
// plan and one analysis per query text, so repeated evaluation of the same
// query — the hot path of any serving system — pays for the chase,
// colorings, and LPs only once, whatever database or epoch it reads.
//
// The zero-cost way to use the library for evaluation:
//
//	eng := cqbound.NewEngine()
//	p, _ := eng.Explain(q)                    // why this strategy, per the paper
//	out, stats, _ := eng.Evaluate(ctx, q, db) // planned execution
//
// An Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	mu       sync.Mutex
	queries  *lru.Cache[*queryEntry]
	sharding *shard.Options
	spill    *spill.Governor

	// Counter sets, registered by Metrics: cache lookups, the epoch
	// lifecycle (txn.go), and the executors' shard and stream families,
	// which evaluations count into through sharding.
	cache, epoch, shard, stream *counter.Set

	// Transactional store (txn.go). txMu serializes commits and compactions;
	// epochMu guards the epoch list, the live pointer, the byDB lookup and
	// reader pin transitions. dict is the engine's private dictionary —
	// swapped only by Compact, hence the atomic pointer (staging and stats
	// read it without a lock). dedup holds the writer's row table of each
	// relation chain (id = row), touched only under txMu.
	txMu    sync.Mutex
	epochMu sync.Mutex
	dict    atomic.Pointer[relation.Dict]
	dedup   map[string]*relation.KeyTable
	live    *epochState
	epochs  []*epochState
	byDB    map[*database.Database]*epochState

	// Observability (observe.go): engine-wide tracing switch, trace
	// sinks, and the lazily-built metric registry.
	tracingOn bool
	sinks     []trace.Sink
	metrics   atomic.Pointer[metricsState]

	// Staged by options, merged into sharding by NewEngine.
	shardingOn   bool
	shardMinRows int
	shardCount   int
	memBudget    int64
	spillDir     string
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithSharding runs evaluation in parallel parts through internal/shard:
// a pipeline that scans a relation of at least threshold rows splits it
// into the given number of contiguous row ranges (shards <= 0 means
// GOMAXPROCS), and each range runs as one pipeline on the worker pool,
// through every join, semijoin and projection after the scan. Every part
// probes the same memoized index of each join's other side, built once
// and shared read-only; no operator repartitions rows, except a hash
// projection that drops the parts' key, which exchanges onto its first
// kept column so duplicates meet in one part. Scans below the threshold
// run in one part exactly as without the option. Outputs are identical
// either way; only wall-clock changes. The shard_* counters of Metrics
// report what the operators did.
func WithSharding(threshold, shards int) Option {
	return func(e *Engine) {
		e.shardingOn = true
		e.shardMinRows = threshold
		e.shardCount = shards
	}
}

// WithMemoryBudget caps the resident bytes of the intermediates an
// evaluation builds: every transient relation — a Yannakakis reduction, a
// forced subtree result, a chunk of a projection's exchange — registers
// with a memory governor (internal/spill), and when the total exceeds
// `bytes` the coldest unpinned ones are parked in file-backed segments
// under the spill directory (WithSpillDir, or the OS temp dir) and loaded
// back transparently on next use. Indexes and relations an operator is
// scanning stay resident — the budget is a target the governor evicts
// toward, never a hard cap that could wedge a query against its own
// working set — and outputs are identical with or without a budget.
// bytes <= 0 means unlimited. Base relations and answers are never
// governed, and every transient is discarded when its evaluation returns.
// The spill_* entries of Metrics report what the governor did, and Close
// releases the spill files.
func WithMemoryBudget(bytes int64) Option {
	return func(e *Engine) {
		e.memBudget = bytes
	}
}

// WithSpillDir sets the directory under which a WithMemoryBudget engine
// creates its private spill directory (default: the OS temp dir). Each
// engine's directory is fresh and uniquely named, so stale files left
// behind by a crashed process are never read — and never deleted: clean a
// shared spill dir out-of-band if crashes accumulate.
func WithSpillDir(dir string) Option {
	return func(e *Engine) {
		e.spillDir = dir
	}
}

// Close releases the engine's spill state: parked shards are loaded back
// into memory (relations stay fully usable afterwards) and the engine's
// spill directory is removed. A nil spill configuration makes Close a
// no-op. The engine itself remains usable, but a long-lived budgeted
// engine should be Closed when retired so no spill files leak.
func (e *Engine) Close() error {
	return e.spill.Close()
}

// cacheCounters is the family of query-cache lookups, one per plan or
// analysis asked for (registry names cache_*).
var (
	cacheCounters = counter.NewFamily("cache")
	cacheHits     = cacheCounters.Counter("hits", "query-cache lookups that hit")
	cacheMisses   = cacheCounters.Counter("misses", "query-cache lookups that missed")
)

// countLookup counts one cache lookup into m.
func countLookup(m *counter.Set, hit bool) {
	if hit {
		m.Add(cacheHits, 1)
	} else {
		m.Add(cacheMisses, 1)
	}
}

// maxCacheEntries bounds the query cache so long-lived servers seeing
// unbounded ad-hoc query text (user constants, generated variable names)
// cannot grow memory monotonically. At the cap the least recently used
// entry is evicted; re-planning after eviction is always correct, just
// slower once.
const maxCacheEntries = 4096

// queryEntry is the cached state of one query text: its structural plan
// (Explain) and its analysis (Analyze), each computed once, on its first
// lookup. Both depend on the query alone; the data enters a plan only
// through the project-early atom order, which planFor derives per call.
// A half is computed outside the engine lock, so LP-heavy planning never
// serializes unrelated queries; racing lookups of a fresh half wait for
// the one computing it.
type queryEntry struct {
	planOnce, analysisOnce sync.Once
	plan                   *plan.Plan
	analysis               *Analysis
	planErr, analysisErr   error
}

// entry returns q's query-cache entry, adding an empty one on first sight.
func (e *Engine) entry(q *Query) *queryEntry {
	key := q.String()
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.queries.Get(key)
	if !ok {
		ent = new(queryEntry)
		e.queries.Put(key, ent)
	}
	return ent
}

// structural returns q's cached structural plan, counting the lookup into
// m and reporting whether it hit.
func (e *Engine) structural(q *Query, m *counter.Set) (*Plan, bool, error) {
	ent, hit := e.entry(q), true
	ent.planOnce.Do(func() {
		hit = false
		ent.plan, ent.planErr = plan.Choose(q)
	})
	countLookup(m, hit)
	return ent.plan, hit, ent.planErr
}

// NewEngine returns an engine with an empty query cache, configured by
// opts.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		queries: lru.New[*queryEntry](maxCacheEntries),
		dedup:   make(map[string]*relation.KeyTable),
		cache:   cacheCounters.NewSet(),
		epoch:   epochCounters.NewSet(),
		shard:   shard.Counters.NewSet(),
		stream:  batch.Counters.NewSet(),
	}
	for _, opt := range opts {
		opt(e)
	}
	// Every engine owns a private dictionary and an initial empty epoch:
	// values ingested through transactions intern here, never in the
	// process-wide default, so concurrent engines cannot cross-contaminate
	// IDs. Free-standing databases handed to Evaluate keep resolving
	// through the default dictionary as before.
	e.dict.Store(relation.NewDict())
	live := &epochState{epoch: 1, db: database.NewIn(e.dict.Load()).Next(1, nil)}
	e.live = live
	e.epochs = []*epochState{live}
	e.byDB = map[*database.Database]*epochState{live.db: live}
	if e.memBudget > 0 {
		e.spill = spill.NewGovernor(e.memBudget, e.spillDir)
	}
	if e.shardingOn {
		e.sharding = &shard.Options{
			MinRows: e.shardMinRows,
			Shards:  e.shardCount,
			Metrics: e.shard,
			Spill:   e.spill,
		}
	}
	// The executors' configuration rides on shard.Options (the pipelines
	// are per-part), so an engine without WithSharding gets a one-part
	// options block carrying the governor and counters. Batch size stays
	// at the executors' default (batch.DefaultSize rows). Such an engine
	// counts no operators: its shard_* counters stay zero.
	if e.sharding == nil {
		e.sharding = &shard.Options{Shards: 1, Spill: e.spill}
	}
	e.sharding.Batch = e.stream
	return e
}

// ResetStats zeroes every counter in the engine's registry — its own
// families and the serve families a Server registered on it — so callers
// can attribute counts to a window, e.g. one query in a benchmark sweep,
// instead of the engine's lifetime. Gauges describe present state and
// survive (cached entries, resident and on-disk bytes, parked shards,
// high-water marks, live epoch, dictionary size), as do histograms.
func (e *Engine) ResetStats() {
	e.Metrics().Reset()
}

// CacheSize reports how many distinct query texts the engine currently
// holds a plan or an analysis for.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queries.Len()
}

// Analyze returns the full paper analysis of q, cached by the query's
// canonical text (so structurally identical Query values share one entry).
// The returned analysis is shared across callers; it must not be modified.
func (e *Engine) Analyze(q *Query) (*Analysis, error) {
	ent, hit := e.entry(q), true
	ent.analysisOnce.Do(func() {
		hit = false
		ent.analysis, ent.analysisErr = core.Analyze(q)
	})
	countLookup(e.cache, hit)
	return ent.analysis, ent.analysisErr
}

// Explain returns the evaluation plan for q: the strategy the bound-driven
// planner selects plus the paper-derived rationale (acyclicity, color
// number, ρ*). The plan is structural — independent of any database — and
// cached like Analyze. The returned plan is shared; callers must not
// modify it.
func (e *Engine) Explain(q *Query) (*Plan, error) {
	p, _, err := e.structural(q, e.cache)
	return p, err
}

// Evaluate computes Q(D) under the planned strategy: the structural plan
// cached for q's text (see Explain) plus, for the project-early strategy,
// an atom order derived on every call from db's cardinality statistics.
// A database memoizes its statistics, so the order costs little, and it
// always fits the data: a commit that inverts a size skew reorders the
// atoms on the new epoch while a reader pinned to an older epoch keeps
// that epoch's order. When db is an epoch snapshot of this engine, the
// epoch is pinned for the duration: the retirement sweep will not reclaim
// its relations mid-evaluation. When the engine was built WithSharding,
// pipelines that scan relations at or above the row threshold run in
// parallel row ranges. Cancellation of ctx aborts evaluation mid-join.
func (e *Engine) Evaluate(ctx context.Context, q *Query, db *Database) (*Relation, EvalStats, error) {
	out, st, _, _, err := e.evaluate(ctx, q, db, nil, e.tracingOn)
	return out, st, err
}

// evaluate is the one path from query to answer behind Evaluate,
// EvaluateStrategy, EvaluateTraced and ExplainAnalyze: pin db's epoch,
// plan, execute under the run's options, and finish the run. A non-nil
// forced plan replaces the cache lookup (and is atom-ordered like a
// cached one). A traced run adds the plan span, the counter deltas, the
// histograms and the sinks. It returns the plan it ran.
func (e *Engine) evaluate(ctx context.Context, q *Query, db *Database, forced *Plan, traced bool) (*Relation, EvalStats, *Plan, *Trace, error) {
	if st := e.pinEpoch(db); st != nil {
		defer e.unpinEpoch(st)
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.NewTracer(q.String())
		tr.SetRequestID(obs.RequestID(ctx))
	}
	r := e.evalOptions(tr)
	var p *Plan
	var err error
	if forced != nil {
		p = ordered(forced, q, db)
	} else {
		ps := tr.Stage(trace.KindPlan, "plan")
		var hit bool
		p, hit, err = e.planFor(q, db, r.cache)
		if hit {
			ps.SetNote("plan cache hit")
		} else {
			ps.SetNote("plan cache miss")
		}
		ps.End()
	}
	if err != nil {
		r.finish(e)
		return nil, EvalStats{}, nil, nil, err
	}
	var epBefore *counter.Set
	if tr != nil {
		epBefore = e.epoch.Clone()
	}
	out, st, err := plan.ExecuteOpts(ctx, p, q, db, r.opts)
	r.finish(e)
	if tr == nil {
		return out, st, p, nil, err
	}
	t := tr.Finish()
	spilled := r.opts.Scope.Counters()
	t.Deltas = counterDeltas(r.cache, r.shard, r.stream, spilled, e.epoch.Since(epBefore))
	if err != nil {
		return nil, st, p, t, err
	}
	e.observeTrace(t, spilled)
	for _, s := range e.sinks {
		s.Emit(t)
	}
	return out, st, p, t, nil
}

// planFor returns the plan Evaluate runs for q over db — the cached
// structural plan, atom-ordered against db — counting its one cache lookup
// into m and reporting whether it hit.
func (e *Engine) planFor(q *Query, db *Database, m *counter.Set) (*Plan, bool, error) {
	p, hit, err := e.structural(q, m)
	if err != nil {
		return nil, hit, err
	}
	return ordered(p, q, db), hit, nil
}

// ordered returns p, or for the project-early strategy a copy of p with
// the atom order plan.OrderAtoms derives from db's memoized statistics:
// the one part of a plan that depends on the data.
func ordered(p *Plan, q *Query, db *Database) *Plan {
	if p.Strategy != StrategyProjectEarly {
		return p
	}
	o := *p
	o.AtomOrder = plan.OrderAtoms(q, db)
	return &o
}

// ExplainDB returns the plan Evaluate would use for q over db: the cached
// structural plan plus, for project-early, the atom order derived from
// db's statistics. The returned plan may be shared; do not modify it.
func (e *Engine) ExplainDB(q *Query, db *Database) (*Plan, error) {
	p, _, err := e.planFor(q, db, e.cache)
	return p, err
}

// BoundRows returns the paper's pre-execution worst-case row bound for
// evaluating q over db under the planned strategy — Σ|Rᵢ| for Yannakakis
// (intermediates ≤ input + output), rmax^C of Thm 4.4 for project-early,
// the AGM bound rmax^ρ* for the generic join. The bound is known before
// the query runs, which is what lets a serving front-end's admission
// controller reserve memory (or queue or reject) instead of discovering an
// oversized query by thrashing. When a bound's inputs are unavailable (an
// unpriced exponent, a relation absent from db) it falls back to the total
// input rows; planning errors propagate.
func (e *Engine) BoundRows(q *Query, db *Database) (float64, error) {
	p, err := e.Explain(q)
	if err != nil {
		return 0, err
	}
	return boundOrInputRows(p, q, db), nil
}

// boundOrInputRows is plan.BoundRows, falling back to the total input rows
// Σ|Rᵢ| when the bound's inputs are unavailable.
func boundOrInputRows(p *Plan, q *Query, db *Database) float64 {
	if rows, _, ok := plan.BoundRows(p, q, db); ok {
		return rows
	}
	in := 0
	for _, a := range q.Body {
		if r := db.Relation(a.Relation); r != nil {
			in += r.Size()
		}
	}
	return float64(in)
}

// PlanInfo returns, in one call against the cached plan, what the serving
// path wants to know before (and record after) an evaluation: the chosen
// strategy's name, the paper's worst-case row bound (as BoundRows, with
// the same Σ|Rᵢ| fallback), and the System-R independence estimate of the
// output size. Bound versus estimate versus actual rows is the
// bound-calibration telemetry the server aggregates per strategy and
// query shape.
func (e *Engine) PlanInfo(q *Query, db *Database) (strategy string, bound, estimate float64, err error) {
	p, err := e.Explain(q)
	if err != nil {
		return "", 0, 0, err
	}
	return p.Strategy.String(), boundOrInputRows(p, q, db), eval.EstimateOutput(q, db), nil
}

// evalRun is one evaluation's options and the set its cache lookup counts
// into. An untraced run counts straight into the engine's sets; a traced
// one counts into the private sets held here, so that its trace deltas
// stay exact under concurrency, and finish merges them into the engine's.
type evalRun struct {
	opts          *shard.Options
	cache         *counter.Set
	shard, stream *counter.Set // traced runs only
}

// evalOptions returns the run of one evaluation, traced when tr is
// non-nil. Under a memory budget each evaluation gets its own spill scope:
// the governor buffers of its intermediates — garbage once the
// evaluation's output is materialized — are discarded by finish, so once
// an evaluation returns the governor holds what it held before it.
func (e *Engine) evalOptions(tr *trace.Tracer) evalRun {
	r := evalRun{opts: e.sharding, cache: e.cache}
	if e.spill == nil && tr == nil {
		return r
	}
	o := *e.sharding
	r.opts = &o
	if e.spill != nil {
		o.Scope = spill.NewScope()
	}
	if tr != nil {
		o.Trace = tr
		r.cache, r.shard, r.stream = cacheCounters.NewSet(), shard.Counters.NewSet(), batch.Counters.NewSet()
		if o.Metrics != nil {
			o.Metrics = r.shard
		}
		o.Batch = r.stream
	}
	return r
}

// finish closes the run's spill scope, discarding its intermediate
// buffers (the scope's counters stay readable), and merges a traced run's
// private counters into the engine's.
func (r evalRun) finish(e *Engine) {
	r.opts.Scope.Close()
	if r.opts.Trace != nil {
		r.cache.AddTo(e.cache)
		r.shard.AddTo(e.shard)
		r.stream.AddTo(e.stream)
	}
}

// BatchResult is one query's outcome from EvaluateBatch.
type BatchResult struct {
	// Output is Q(D); nil when Err is set.
	Output *Relation
	// Stats reports what the chosen strategy did.
	Stats EvalStats
	// Err is the query's own failure (planning or evaluation); one query
	// failing does not fail its siblings.
	Err error
}

// EvaluateBatch plans and evaluates the queries against db concurrently on
// a bounded worker pool (one worker per CPU), the serving loop of a system
// answering many queries over one database. Per-query failures land in the
// corresponding BatchResult; canceling ctx stops unstarted queries, whose
// results report the context error. Cached analyses and plans — and the
// statistics and indexes memoized on db's relations — are shared across
// the batch.
func (e *Engine) EvaluateBatch(ctx context.Context, queries []*Query, db *Database) []BatchResult {
	out := make([]BatchResult, len(queries))
	started := make([]bool, len(queries))
	_ = pool.Run(ctx, 0, len(queries), func(i int) error {
		started[i] = true
		r, st, err := e.Evaluate(ctx, queries[i], db)
		out[i] = BatchResult{Output: r, Stats: st, Err: err}
		return nil
	})
	if err := ctx.Err(); err != nil {
		for i := range out {
			if !started[i] {
				out[i].Err = err
			}
		}
	}
	return out
}

// EvaluateStrategy forces a specific strategy, bypassing plan selection —
// the benchmarking and cross-checking hook. StrategyYannakakis fails on
// cyclic queries. The engine's sharding configuration applies as in
// Evaluate; the run is never traced.
func (e *Engine) EvaluateStrategy(ctx context.Context, s Strategy, q *Query, db *Database) (*Relation, EvalStats, error) {
	out, st, _, _, err := e.evaluate(ctx, q, db, &plan.Plan{Strategy: s}, false)
	return out, st, err
}
