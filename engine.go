package cqbound

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"cqbound/internal/batch"
	"cqbound/internal/core"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/lru"
	"cqbound/internal/metrics/counter"
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

// Engine plans and evaluates conjunctive queries, caching per-query
// analysis so repeated evaluation of the same query — the hot path of any
// serving system — pays for the chase, colorings, and LPs only once.
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
	analyses *lru.Cache[*analysisEntry]
	plans    *lru.Cache[*planEntry]
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
	// read it without a lock). dedup holds the writer-owned tuple→row maps
	// per relation chain, touched only under txMu.
	txMu    sync.Mutex
	epochMu sync.Mutex
	dict    atomic.Pointer[relation.Dict]
	dedup   map[string]relation.Dedup
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

// WithSharding runs evaluation partition-parallel through the routing of
// internal/shard: any join, semijoin, or duplicate-eliminating projection
// whose probe-side input has at least threshold rows is hash-partitioned
// into the given number of shards (shards <= 0 means GOMAXPROCS) and runs
// as one pipeline per shard on the worker pool. Intermediate results stay
// partitioned between steps: a join whose key matches the partitioning the
// previous step left reuses it outright, and a mismatched key either
// probes a small side whole in every part (broadcast) or scatters the
// pipeline's batches onto the new key (exchange). Steps below the
// threshold — and joins with no shared column to partition on — run
// single-shard exactly as without the option. Outputs are identical either
// way; only wall-clock and memory locality change. The shard_* counters
// of Metrics report what the routing actually did.
func WithSharding(threshold, shards int) Option {
	return func(e *Engine) {
		e.shardingOn = true
		e.shardMinRows = threshold
		e.shardCount = shards
	}
}

// WithMemoryBudget caps the resident bytes of shard storage built during
// evaluation: every partition shard and partitioned intermediate registers
// with a memory governor (internal/spill), and when the total exceeds
// `bytes` the coldest unpinned shards are parked in file-backed segments
// under the spill directory (WithSpillDir, or the OS temp dir) and loaded
// back transparently on next use. Hot shards, hash indexes, and shards an
// operator is scanning stay resident — the budget is a target the governor
// evicts toward, never a hard cap that could wedge a query against its own
// working set — and outputs are identical with or without a budget.
// bytes <= 0 means unlimited. Spilling's unit is the shard: the governor
// sees base-relation partitions and pipeline sinks even on a single-shard
// engine, and WithSharding raises the granularity (more, smaller victims)
// — pair the two when the budget must track intermediates closely.
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

// cacheCounters is the family of analysis- and plan-cache lookups
// (registry names cache_*).
var (
	cacheCounters = counter.NewFamily("cache")
	cacheHits     = cacheCounters.Counter("hits", "analysis- and plan-cache lookups that hit")
	cacheMisses   = cacheCounters.Counter("misses", "analysis- and plan-cache lookups that missed")
)

// countLookup counts one cache lookup into m.
func countLookup(m *counter.Set, hit bool) {
	if hit {
		m.Add(cacheHits, 1)
	} else {
		m.Add(cacheMisses, 1)
	}
}

// maxCacheEntries bounds each engine cache so long-lived servers seeing
// unbounded ad-hoc query text (user constants, generated variable names)
// cannot grow memory monotonically. At the cap the least recently used
// entry is evicted; re-analysis after eviction is always correct, just
// slower once.
const maxCacheEntries = 4096

type analysisEntry struct {
	a   *Analysis
	err error
}

type planEntry struct {
	p   *plan.Plan
	err error
}

// NewEngine returns an engine with empty caches, configured by opts.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		analyses: lru.New[*analysisEntry](maxCacheEntries),
		plans:    lru.New[*planEntry](maxCacheEntries),
		dedup:    make(map[string]relation.Dedup),
		cache:    cacheCounters.NewSet(),
		epoch:    epochCounters.NewSet(),
		shard:    shard.Counters.NewSet(),
		stream:   batch.Counters.NewSet(),
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
	// are per-shard), so an engine without WithSharding gets a single-shard
	// options block carrying the governor and counters. Batch size and the
	// skew-split trigger stay at the executors' defaults (batch.DefaultSize
	// rows; a shard over 0.25 of its side's rows splits). Such an engine
	// counts no routing decisions: its shard_* counters stay zero.
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

// CacheSize reports how many distinct queries the engine currently holds an
// analysis or plan for.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.plans.Len()
	for _, k := range e.analyses.Keys() {
		if _, dup := e.plans.Peek(k); !dup {
			n++
		}
	}
	return n
}

// Analyze returns the full paper analysis of q, cached by the query's
// canonical text (so structurally identical Query values share one entry).
// The returned analysis is shared across callers; it must not be modified.
func (e *Engine) Analyze(q *Query) (*Analysis, error) {
	key := q.String()
	e.mu.Lock()
	ent, ok := e.analyses.Get(key)
	e.mu.Unlock()
	countLookup(e.cache, ok)
	if ok {
		return ent.a, ent.err
	}
	// Computed outside the lock: analyses can be LP-heavy and must not
	// serialize unrelated queries. Two goroutines racing on the same fresh
	// query both compute; the second store wins harmlessly.
	a, err := core.Analyze(q)
	e.mu.Lock()
	e.analyses.Put(key, &analysisEntry{a: a, err: err})
	e.mu.Unlock()
	return a, err
}

// Explain returns the evaluation plan for q: the strategy the bound-driven
// planner selects plus the paper-derived rationale (acyclicity, color
// number, ρ*). The plan is structural — independent of any database — and
// cached like Analyze. The returned plan is shared; callers must not
// modify it.
func (e *Engine) Explain(q *Query) (*Plan, error) {
	key := q.String()
	e.mu.Lock()
	ent, ok := e.plans.Get(key)
	e.mu.Unlock()
	countLookup(e.cache, ok)
	if ok {
		return ent.p, ent.err
	}
	p, err := plan.Choose(q)
	e.mu.Lock()
	e.plans.Put(key, &planEntry{p: p, err: err})
	e.mu.Unlock()
	return p, err
}

// Evaluate computes Q(D) under the planned strategy. For the project-early
// strategy over a free-standing database the atom order is re-derived from
// db's cardinality statistics on every call (the structural plan stays
// cached; the order is data-dependent and cheap); for an epoch snapshot the
// full data-dependent plan is cached per (query, epoch) — a snapshot's
// statistics never change, and a committed batch that inverts a skew gets a
// fresh plan under the new epoch's key instead of a stale one. When db is
// an epoch snapshot of this engine, the epoch is pinned for the duration:
// the retirement sweep will not reclaim its buffers mid-evaluation. When
// the engine was built WithSharding, joins and projections over relations
// above the row threshold run partition-parallel. Cancellation of ctx
// aborts evaluation mid-join.
func (e *Engine) Evaluate(ctx context.Context, q *Query, db *Database) (*Relation, EvalStats, error) {
	if e.tracingOn {
		out, st, _, err := e.EvaluateTraced(ctx, q, db)
		return out, st, err
	}
	if st := e.pinEpoch(db); st != nil {
		defer e.unpinEpoch(st)
	}
	p, err := e.planFor(q, db)
	if err != nil {
		return nil, EvalStats{}, err
	}
	r := e.evalOptions(nil)
	defer r.finish(e)
	return plan.ExecuteOpts(ctx, p, q, db, r.opts)
}

// planFor returns the evaluation plan for q over db. Epoch snapshots cache
// the complete cardinality-aware plan under (query text, epoch) — the
// snapshot is immutable, so the data-dependent atom order is as cacheable
// as the structural facts, and retiring the epoch prunes its entries.
// Free-standing databases keep the pre-epoch behavior: structural plan from
// the text-keyed cache, atom order re-derived per call.
func (e *Engine) planFor(q *Query, db *Database) (*plan.Plan, error) {
	p, _, err := e.planForHit(q, db, e.cache)
	return p, err
}

// planForHit is planFor, counting its one plan-cache lookup into m and
// also reporting whether it hit — the exact per-query cache delta a traced
// evaluation records (the Evaluate path makes exactly one plan-cache
// lookup and none against the analysis cache).
func (e *Engine) planForHit(q *Query, db *Database, m *counter.Set) (*plan.Plan, bool, error) {
	if db == nil || db.Epoch() == 0 {
		key := q.String()
		e.mu.Lock()
		ent, hit := e.plans.Get(key)
		e.mu.Unlock()
		countLookup(m, hit)
		var p *plan.Plan
		var err error
		if hit {
			p, err = ent.p, ent.err
		} else {
			p, err = plan.Choose(q)
			e.mu.Lock()
			e.plans.Put(key, &planEntry{p: p, err: err})
			e.mu.Unlock()
		}
		if err != nil {
			return nil, hit, err
		}
		if p.Strategy == StrategyProjectEarly {
			ordered := *p
			ordered.AtomOrder = plan.OrderAtoms(q, db)
			p = &ordered
		}
		return p, hit, nil
	}
	key := q.String() + epochKeySuffix(db.Epoch())
	e.mu.Lock()
	ent, ok := e.plans.Get(key)
	e.mu.Unlock()
	countLookup(m, ok)
	if ok {
		return ent.p, true, ent.err
	}
	p, err := plan.ChooseForDB(q, db)
	e.mu.Lock()
	e.plans.Put(key, &planEntry{p: p, err: err})
	e.mu.Unlock()
	return p, false, err
}

// ExplainDB returns the plan Evaluate would use for q over db, including
// the cardinality-dependent atom order — for an epoch snapshot, the cached
// per-(query, epoch) plan. The returned plan is shared; do not modify it.
func (e *Engine) ExplainDB(q *Query, db *Database) (*Plan, error) {
	return e.planFor(q, db)
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
	p, err := e.planFor(q, db)
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
	p, err := e.planFor(q, db)
	if err != nil {
		return "", 0, 0, err
	}
	return p.Strategy.String(), boundOrInputRows(p, q, db), eval.EstimateOutput(q, db), nil
}

// epochKeySuffix is appended to a query's text to form its per-epoch plan
// cache key. NUL cannot appear in canonical query text, so suffixed keys
// never collide with the structural (text-only) entries of Explain.
func epochKeySuffix(epoch uint64) string {
	return "\x00@" + strconv.FormatUint(epoch, 10)
}

// evalRun is one evaluation's options. An untraced run counts straight
// into the engine's sets; a traced one counts into the private sets held
// here, so that its trace deltas stay exact under concurrency, and finish
// merges them into the engine's.
type evalRun struct {
	opts                 *shard.Options
	cache, shard, stream *counter.Set // traced runs only
}

// evalOptions returns the run of one evaluation, traced when tr is
// non-nil. Under a memory budget each evaluation gets its own spill scope:
// the governor buffers of intermediate shards — garbage once the
// evaluation's output is materialized — are discarded by finish, so a
// long-lived engine's resident bytes, registry and spilled segments
// plateau at the memoized base partitions instead of growing per query.
func (e *Engine) evalOptions(tr *trace.Tracer) evalRun {
	r := evalRun{opts: e.sharding}
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
// statistics, hash indexes, tries and shard partitions memoized on db's
// relations — are shared across the batch.
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
// Evaluate.
func (e *Engine) EvaluateStrategy(ctx context.Context, s Strategy, q *Query, db *Database) (*Relation, EvalStats, error) {
	if st := e.pinEpoch(db); st != nil {
		defer e.unpinEpoch(st)
	}
	forced := &plan.Plan{Strategy: s}
	if s == StrategyProjectEarly {
		forced.AtomOrder = plan.OrderAtoms(q, db)
	}
	r := e.evalOptions(nil)
	defer r.finish(e)
	return plan.ExecuteOpts(ctx, forced, q, db, r.opts)
}
