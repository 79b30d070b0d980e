package eval

// Strategy implementations; package documentation lives in doc.go.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/trace"
)

// Stats records what a strategy did.
type Stats struct {
	// MaxIntermediate is the largest relation the evaluation actually
	// built: Naive's largest intermediate, the largest forced subtree
	// result of Yannakakis, or — since pipelined intermediates stream
	// without being built — the output itself.
	MaxIntermediate int
	// Joins is the number of binary joins (or extension steps) performed.
	Joins int
	// EarlyExit reports that evaluation stopped because an intermediate
	// result was empty, skipping the remaining atoms.
	EarlyExit bool
}

// Naive evaluates q by folding natural joins left to right and projecting at
// the end.
func Naive(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return NaiveCtx(context.Background(), q, db)
}

// NaiveCtx is Naive with cancellation and empty-intermediate early exit.
func NaiveCtx(ctx context.Context, q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	cur, err := bindingRelation(q.Body[0], db)
	if err != nil {
		return nil, st, err
	}
	st.MaxIntermediate = cur.Size()
	for _, a := range q.Body[1:] {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		if cur.Size() == 0 {
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		next, err := bindingRelation(a, db)
		if err != nil {
			return nil, st, err
		}
		cur, err = relation.NaturalJoin(cur, next)
		if err != nil {
			return nil, st, err
		}
		st.Joins++
		if cur.Size() > st.MaxIntermediate {
			st.MaxIntermediate = cur.Size()
		}
	}
	out, err := headProjection(q, cur)
	return out, st, err
}

// JoinProject evaluates q like Naive but projects each intermediate onto the
// variables still needed: head variables plus variables of later atoms.
func JoinProject(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return JoinProjectExec(context.Background(), q, db, nil, nil)
}

// JoinProjectExec evaluates q with the project-early plan along a chosen
// atom order, honoring cancellation: order is a permutation of body-atom
// indices (nil keeps the body's own order). Joining the most selective
// atoms first keeps intermediates small; an empty binding ends evaluation
// immediately, since it empties the output regardless of position. The
// join-project fold runs as pull-based column-batch pipelines
// (internal/batch) routed by internal/shard — scan, probe and projection
// stages chain within each shard, every join reuses the partitioning the
// previous stage left when it aligns with a join column and broadcasts or
// exchanges otherwise, and rows first become a relation again at the head
// projection's sink, so no intermediate is ever materialized. nil opts
// means one pipeline per stage and default batches.
func JoinProjectExec(ctx context.Context, q *cq.Query, db *database.Database, order []int, opts *shard.Options) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	body, err := orderedBody(q, order)
	if err != nil {
		return nil, st, err
	}
	tr := opts.Tracer()
	bs := stageSpan(opts, trace.KindStage, "bindings")
	binds := make([]*relation.Relation, len(body))
	for i, a := range body {
		if binds[i], err = bindingRelation(a, db); err != nil {
			bs.End()
			return nil, st, err
		}
		if binds[i].Size() == 0 {
			bs.End()
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		if tr != nil {
			scanSpan(opts, binds[i].Name, binds[i].Size())
		}
	}
	bs.End()
	needLater := make([]map[cq.Variable]bool, len(body)+1)
	needLater[len(body)] = map[cq.Variable]bool{}
	for i := len(body) - 1; i >= 0; i-- {
		m := make(map[cq.Variable]bool)
		for v := range needLater[i+1] {
			m[v] = true
		}
		for _, v := range body[i].Vars {
			m[v] = true
		}
		needLater[i] = m
	}
	head := q.HeadVarSet()

	var est *estimator
	project := func(pd *shard.Piped, after int) (*shard.Piped, error) {
		var keep []string
		for _, attr := range pd.Attrs() {
			v := cq.Variable(attr)
			if head[v] || needLater[after+1][v] {
				keep = append(keep, attr)
			}
		}
		if len(keep) == len(pd.Attrs()) {
			return pd, nil
		}
		est.projectTo(keep)
		return projectPipedNames(ctx, opts, pd, keep)
	}

	// The pipeline stage covers construction only; the armed operator
	// spans under it close as the sink drains their parts.
	ps := stageSpan(opts, trace.KindStage, "pipeline")
	if tr != nil {
		est = estimatorOf(binds[0])
	}
	pd := shard.PipedOf(shard.StreamOf(binds[0]), opts)
	if pd, err = project(pd, 0); err != nil {
		ps.End()
		return nil, st, err
	}
	for i := range body[1:] {
		var jsp *trace.Span
		if tr != nil {
			jsp = tr.Op(trace.KindJoin, "⋈ "+binds[i+1].Name)
			jsp.SetEst(est.joinWith(binds[i+1]))
		}
		if pd, err = shard.JoinPipedStream(ctx, opts, pd, binds[i+1], false); err != nil {
			jsp.End()
			ps.End()
			return nil, st, err
		}
		shard.TracePiped(pd, jsp)
		st.Joins++
		if pd, err = project(pd, i+1); err != nil {
			ps.End()
			return nil, st, err
		}
	}
	ps.End()
	out, err := headProjectionPiped(ctx, opts, q, pd)
	if err != nil {
		return nil, st, err
	}
	// The fold's intermediates never materialize; the largest relation the
	// plan built is the output itself.
	st.MaxIntermediate = out.Size()
	return out, st, nil
}

// projectPipedNames extends the pipelines with the duplicate-eliminating
// projection onto the named attributes. Under tracing the projection span
// is armed on the returned pipeline (rows and batches count as the sink
// drains); no estimate — a pipeline input has no statistics before it
// runs.
func projectPipedNames(ctx context.Context, opts *shard.Options, pd *shard.Piped, attrs []string) (*shard.Piped, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := slices.Index(pd.Attrs(), a)
		if j < 0 {
			return nil, fmt.Errorf("eval: unknown attribute %q in projection", a)
		}
		idx[i] = j
	}
	return projectPipedTraced(ctx, opts, pd, idx)
}

// projectPipedTraced is shard.ProjectPiped under a π span, armed on the
// returned pipeline and noted with the dedup set the projection chose.
func projectPipedTraced(ctx context.Context, opts *shard.Options, pd *shard.Piped, idx []int) (*shard.Piped, error) {
	var psp *trace.Span
	if tr := opts.Tracer(); tr != nil {
		names := make([]string, len(idx))
		for i, c := range idx {
			names[i] = pd.Attrs()[c]
		}
		psp = tr.Op(trace.KindProject, "π "+strings.Join(names, ","))
	}
	out, err := shard.ProjectPiped(ctx, opts, pd, idx)
	if err != nil {
		psp.End()
		return nil, err
	}
	return shard.TracePiped(out, psp), nil
}

// orderedBody returns the body atoms along the given permutation of indices
// (nil means identity).
func orderedBody(q *cq.Query, order []int) ([]cq.Atom, error) {
	if order == nil {
		return q.Body, nil
	}
	if len(order) != len(q.Body) {
		return nil, fmt.Errorf("eval: atom order has %d entries for %d atoms", len(order), len(q.Body))
	}
	body := make([]cq.Atom, len(order))
	seen := make([]bool, len(q.Body))
	for i, j := range order {
		if j < 0 || j >= len(q.Body) || seen[j] {
			return nil, fmt.Errorf("eval: atom order %v is not a permutation of the body", order)
		}
		seen[j] = true
		body[i] = q.Body[j]
	}
	return body, nil
}

// validateAtoms checks that every body atom has a database relation of the
// right arity. The strategies call it before evaluating so that the
// empty-intermediate early exit cannot mask a missing relation or an arity
// mismatch behind a later atom.
func validateAtoms(q *cq.Query, db *database.Database) error {
	for _, a := range q.Body {
		r := db.Relation(a.Relation)
		if r == nil {
			return fmt.Errorf("eval: missing relation %s", a.Relation)
		}
		if r.Arity() != a.Arity() {
			return fmt.Errorf("eval: relation %s arity %d, atom wants %d", a.Relation, r.Arity(), a.Arity())
		}
	}
	return nil
}

// headAttrs names the output attributes p1..pk for the head's positions.
func headAttrs(q *cq.Query) []string {
	attrs := make([]string, len(q.Head.Vars))
	for i := range attrs {
		attrs[i] = fmt.Sprintf("p%d", i+1)
	}
	return attrs
}

// emptyOutput builds an empty Q(D) with the head's schema.
func emptyOutput(q *cq.Query) *relation.Relation {
	return relation.New(q.Head.Relation, headAttrs(q)...)
}

// bindingRelation converts atom a over its database relation into a relation
// whose attributes are the atom's distinct variables (named by the
// variables) and whose tuples are the substitutions θ with θ(a) ∈ R.
// Repeated variables inside the atom act as a selection.
//
// When the atom has no repeated variables — the common case — the binding
// relation is the base relation with renamed columns, which the interned
// columnar store provides as an O(arity) copy-on-write view: no tuples are
// copied, and statistics and hash indexes memoized on the base relation
// keep serving the view.
func bindingRelation(a cq.Atom, db *database.Database) (*relation.Relation, error) {
	r := db.Relation(a.Relation)
	if r == nil {
		return nil, fmt.Errorf("eval: missing relation %s", a.Relation)
	}
	if r.Arity() != a.Arity() {
		return nil, fmt.Errorf("eval: relation %s arity %d, atom wants %d", a.Relation, r.Arity(), a.Arity())
	}
	vars := a.DistinctVars()
	if len(vars) == len(a.Vars) {
		attrs := make([]string, len(vars))
		for i, v := range vars {
			attrs[i] = string(v)
		}
		return r.Rename("bind_"+a.Relation, attrs...)
	}
	// Repeated variables: filter rows whose repeated positions disagree,
	// projecting onto the first occurrence of each variable. The filtered
	// relation depends only on the repetition PATTERN — which positions
	// repeat which earlier position — not on the variable names, so it is
	// built once per (relation, pattern) in the relation's memo table
	// (shared across renames, invalidated by inserts) and renamed to this
	// atom's variables per call.
	attrs := make([]string, len(vars))
	for i, v := range vars {
		attrs[i] = string(v)
	}
	cached := r.Memo(bindingPatternKey(a), func() any {
		return buildRepeatedBinding(a, r)
	}).(*relation.Relation)
	return cached.Rename("bind_"+a.Relation, attrs...)
}

// bindingPatternKey is the memo key of an atom's repeated-variable binding:
// for each position, the position of the variable's first occurrence.
// Atoms with the same pattern over the same relation share the filtered
// build regardless of how their variables are named.
func bindingPatternKey(a cq.Atom) string {
	first := make(map[cq.Variable]int, len(a.Vars))
	key := make([]byte, 0, 8+len(a.Vars))
	key = append(key, "bindpat:"...)
	for i, v := range a.Vars {
		j, seen := first[v]
		if !seen {
			first[v] = i
			j = i
		}
		key = append(key, byte(j))
	}
	return string(key)
}

// buildRepeatedBinding materializes the repeated-variable selection with
// positional attribute names (the memo entry is name-agnostic; callers
// rename). Insert cannot fail here — the tuple arity matches the schema by
// construction — so the build is infallible, as Memo requires.
func buildRepeatedBinding(a cq.Atom, r *relation.Relation) *relation.Relation {
	vars := a.DistinctVars()
	attrs := make([]string, len(vars))
	pos := make(map[cq.Variable]int, len(vars))
	for i, v := range vars {
		attrs[i] = fmt.Sprintf("b%d", i)
		pos[v] = i
	}
	out := relation.New("bindpat", attrs...)
	bound := make(relation.Tuple, len(vars))
	set := make([]bool, len(vars))
	r.Each(func(t relation.Tuple) bool {
		for j := range set {
			set[j] = false
		}
		for i, v := range a.Vars {
			j := pos[v]
			if set[j] && bound[j] != t[i] {
				return true
			}
			bound[j] = t[i]
			set[j] = true
		}
		out.Insert(bound)
		return true
	})
	return out
}

// headIndexes resolves the head's positions to columns of a binding schema
// containing (at least) every head variable. Head positions may repeat
// variables.
func headIndexes(q *cq.Query, attrs []string) ([]int, error) {
	idx := make([]int, len(q.Head.Vars))
	for i, v := range q.Head.Vars {
		j := slices.Index(attrs, string(v))
		if j < 0 {
			return nil, fmt.Errorf("eval: head variable %s missing from bindings", v)
		}
		idx[i] = j
	}
	return idx, nil
}

// headProjection builds Q(D) from Naive's final binding relation: output
// attributes are named p1..pk and the relation carries the head name.
func headProjection(q *cq.Query, bind *relation.Relation) (*relation.Relation, error) {
	idx, err := headIndexes(q, bind.Attrs)
	if err != nil {
		return nil, err
	}
	proj, err := bind.ProjectIdx(idx...)
	if err != nil {
		return nil, err
	}
	return proj.Rename(q.Head.Relation, headAttrs(q)...)
}

// headProjectionPiped is the executors' head projection: it extends the
// pipeline, and its sink is the first — and only — full materialization of
// the plan; the final dedup over Q(D), often the largest map an evaluation
// builds, is split across the parts. The output is Q(D): it outlives the
// evaluation, so it is never registered with the spill governor.
func headProjectionPiped(ctx context.Context, opts *shard.Options, q *cq.Query, pd *shard.Piped) (*relation.Relation, error) {
	idx, err := headIndexes(q, pd.Attrs())
	if err != nil {
		return nil, err
	}
	hs := stageSpan(opts, trace.KindStage, "head projection + sink")
	mk := markSpill(opts, hs != nil)
	proj, err := projectPipedTraced(ctx, opts, pd, idx)
	if err != nil {
		hs.End()
		return nil, err
	}
	var ssp *trace.Span
	if tr := opts.Tracer(); tr != nil {
		ssp = tr.Op(trace.KindSink, "materialize "+q.Head.Relation)
	}
	// MaterializePiped is the drain: all upstream pipeline work happens
	// inside this call, so the stage's wall time is the plan's execution.
	sunk, err := shard.MaterializePiped(ctx, opts, proj, q.Head.Relation, false)
	if err != nil {
		ssp.End()
		hs.End()
		return nil, err
	}
	out := sunk.Rel()
	setSinkOut(ssp, out, proj.Parts())
	ssp.End()
	setSinkOut(hs, out, proj.Parts())
	mk.annotate(hs)
	hs.End()
	return out.Rename(q.Head.Relation, headAttrs(q)...)
}

// GenericJoin evaluates q with a worst-case optimal variable-at-a-time
// backtracking join.
func GenericJoin(q *cq.Query, db *database.Database) (*relation.Relation, Stats, error) {
	return GenericJoinExec(context.Background(), q, db, nil)
}

// scanLimit is the longest posting generic join extends by scanning it:
// up to this many rows, an atom's sub-posting for a candidate value is
// filtered out of its current posting and membership is a linear search;
// longer postings are probed through their hash index.
const scanLimit = 32

// GenericJoinExec evaluates q with a worst-case optimal variable-at-a-time
// backtracking join. Variables are ordered by descending atom frequency,
// ties going to head variables, and each atom reads, for every prefix of
// its variables in that order, the memoized hash index on those columns of
// its binding relation — the same relation.Index a join on them probes. A
// variable takes its candidates from the atom with the fewest rows under
// its bound prefix, and every other atom narrows to the rows holding the
// candidate: postings of at most scanLimit rows are filtered by a scan
// into a buffer reused per (atom, depth), longer ones are probed. At an
// atom's last variable only membership is tested (Index.Has, or a scan
// that stops at the first match); no posting is recorded. Below the
// deepest head variable the search stops at the first witness, so a
// projected head pays for one witness per assignment of the variables up
// to it, not for every full assignment. When the head variables form a prefix of the order (always
// for a full head), distinct search paths yield distinct head tuples, so
// the leaf appends to output columns and the answer is built without a
// dedup pass; otherwise each head tuple is inserted into a deduplicating
// relation. Cancellation is checked at every extension step. The search
// tree is single-shard by design (ROADMAP keeps sharding it as an open
// item), so opts (nil allowed) carry only the tracer: under tracing each
// atom's index reads become a scan span and each variable of the global
// order an extension span counting the partial assignments that survived
// that level — the worst-case-optimal analogue of per-join intermediate
// sizes.
func GenericJoinExec(ctx context.Context, q *cq.Query, db *database.Database, opts *shard.Options) (*relation.Relation, Stats, error) {
	var st Stats
	if err := validateAtoms(q, db); err != nil {
		return nil, st, err
	}
	tr := opts.Tracer()
	stage := stageSpan(opts, trace.KindStage, "generic join")
	defer stage.End()
	headVars := q.HeadVarSet()
	freq := make(map[cq.Variable]int)
	for _, a := range q.Body {
		for _, v := range a.DistinctVars() {
			freq[v]++
		}
	}
	// Head-first ties only: putting every head variable first would
	// cross-multiply head values that no atom relates.
	order := q.Variables()
	sort.SliceStable(order, func(i, j int) bool {
		if fi, fj := freq[order[i]], freq[order[j]]; fi != fj {
			return fi > fj
		}
		return headVars[order[i]] && !headVars[order[j]]
	})
	rank := make(map[cq.Variable]int, len(order))
	for i, v := range order {
		rank[v] = i
	}
	// lastHead is the level of the deepest head variable (-1 for a boolean
	// head): levels below it search for one witness only.
	lastHead := -1
	for v := range headVars {
		lastHead = max(lastHead, rank[v])
	}
	headRank := make([]int, len(q.Head.Vars))
	for i, v := range q.Head.Vars {
		headRank[i] = rank[v]
	}

	// The assignment, one value per variable in rank order, doubles as a
	// one-row columnar key: an atom whose first d+1 variables (in rank
	// order) have ranks pos probes its level-d index at (key, pos, 0).
	assign := make([]relation.Value, len(order))
	key := make([][]relation.Value, len(order))
	for k := range key {
		key[k] = assign[k : k+1]
	}

	// Per atom and depth d: the index on the first d+1 variables, the
	// column of variable d, and rows[d], the posting of the bound prefix of
	// d variables (at depth 0 all rows: nil unless short enough to scan).
	// bufs[d] is the storage a short posting is filtered into. The indexes
	// are memoized on the binding relation — which for atoms without
	// repeated variables is a view of the base relation, so joins, repeated
	// evaluations and concurrent batch evaluations share them until the
	// relation grows.
	type atomIndex struct {
		pos    []int // ranks of the atom's variables, ascending
		levels []*relation.Index
		vals   [][]relation.Value
		rows   [][]int32
		bufs   [][]int32
		n      int
	}
	type step struct{ atom, depth int }
	steps := make([][]step, len(order)) // the atoms each variable extends
	atoms := make([]*atomIndex, len(q.Body))
	for i, a := range q.Body {
		bind, err := bindingRelation(a, db)
		if err != nil {
			return nil, st, err
		}
		if bind.Size() == 0 {
			st.EarlyExit = true
			return emptyOutput(q), st, nil
		}
		av := a.DistinctVars()
		sort.Slice(av, func(x, y int) bool { return rank[av[x]] < rank[av[y]] })
		var tsp *trace.Span
		if tr != nil {
			tsp = tr.Op(trace.KindScan, "index "+bind.Name)
			tsp.AddIn(bind.Size())
		}
		bind.Pin()
		defer bind.Unpin()
		ai := &atomIndex{
			pos:    make([]int, len(av)),
			levels: make([]*relation.Index, len(av)),
			vals:   make([][]relation.Value, len(av)),
			rows:   make([][]int32, len(av)),
			bufs:   make([][]int32, len(av)),
			n:      bind.Size(),
		}
		if len(av) > 0 && ai.n <= scanLimit {
			ai.rows[0] = make([]int32, ai.n)
			for r := range ai.rows[0] {
				ai.rows[0][r] = int32(r)
			}
		}
		if len(av) > 1 {
			buf := make([]int32, scanLimit*(len(av)-1))
			for d := 1; d < len(av); d++ {
				ai.bufs[d] = buf[(d-1)*scanLimit : (d-1)*scanLimit : d*scanLimit]
			}
		}
		cols := make([]int, len(av))
		for d, v := range av {
			cols[d] = bind.AttrIndex(string(v))
			ai.pos[d] = rank[v]
			ai.levels[d] = bind.Index(cols[:d+1]...)
			ai.vals[d] = bind.Column(cols[d])
			steps[rank[v]] = append(steps[rank[v]], step{i, d})
		}
		atoms[i] = ai
		tsp.End()
	}

	// The head variables form a prefix of the order exactly when the
	// deepest of them sits at level |head vars| − 1; then the leaf appends
	// to output columns. A boolean head keeps the deduplicating relation,
	// which can hold its one empty tuple.
	var outCols [][]relation.Value
	var out *relation.Relation
	if len(headVars) > 0 && lastHead == len(headVars)-1 {
		outCols = make([][]relation.Value, len(q.Head.Vars))
	} else {
		out = emptyOutput(q)
	}
	head := make(relation.Tuple, len(q.Head.Vars))
	emit := func() error {
		if out == nil {
			for i, r := range headRank {
				outCols[i] = append(outCols[i], assign[r])
			}
			return nil
		}
		for i, r := range headRank {
			head[i] = assign[r]
		}
		_, err := out.Insert(head)
		return err
	}

	// levelCounts[k] counts partial assignments surviving variable k —
	// the per-level intermediate sizes of the search tree. Counted only
	// under tracing (one branch per extension otherwise skipped).
	var levelCounts []int64
	if tr != nil {
		levelCounts = make([]int64, len(order))
	}

	// under returns how many rows an atom holds under its bound prefix.
	under := func(s step) int {
		if ps := atoms[s.atom].rows[s.depth]; ps != nil {
			return len(ps)
		}
		return atoms[s.atom].n
	}
	// narrow restricts atom s to the rows holding v at its depth, reporting
	// whether any does. At the atom's last depth it only tests membership.
	narrow := func(s step, v relation.Value) bool {
		b, e := atoms[s.atom], s.depth
		ps, col := b.rows[e], b.vals[e]
		short := ps != nil && len(ps) <= scanLimit
		if e+1 == len(b.pos) {
			if !short {
				return b.levels[e].Has(key, b.pos[:e+1], 0)
			}
			return holds(col, ps, v)
		}
		if !short {
			b.rows[e+1] = b.levels[e].Rows(key, b.pos[:e+1], 0)
			return len(b.rows[e+1]) > 0
		}
		b.rows[e+1] = filter(b.bufs[e+1][:0], col, ps, v)
		return len(b.rows[e+1]) > 0
	}
	// A non-blocking receive on Done is lock-free; ctx.Err takes a mutex.
	done := ctx.Done()
	// extend enumerates the values of variable level and reports whether
	// any full assignment was reached below them.
	var extend func(level int) (bool, error)
	extend = func(level int) (bool, error) {
		select {
		case <-done:
			return false, ctx.Err()
		default:
		}
		if len(steps[level]) == 0 {
			// Cannot happen for safe queries: every variable occurs in some
			// atom.
			return false, fmt.Errorf("eval: variable %s has no active atom", order[level])
		}
		st.Joins++
		small := steps[level][0]
		for _, s := range steps[level][1:] {
			if under(s) < under(small) {
				small = s
			}
		}
		a, d, n := atoms[small.atom], small.depth, under(small)
		ps, col := a.rows[d], a.vals[d]
		short := ps != nil && n <= scanLimit
		// Under a fully bound prefix a set's rows hold distinct values.
		atomLast := d+1 == len(a.pos)
		last, witness := level == len(order)-1, level > lastHead
		found := false
		for k := 0; k < n; k++ {
			row := int32(k)
			if ps != nil {
				row = ps[k]
			}
			v := col[row]
			assign[level] = v
			if !atomLast {
				if !short {
					// Postings are ascending, so a value counts once: at
					// the first row of its (prefix, value) posting.
					sub := a.levels[d].Rows(key, a.pos[:d+1], 0)
					if sub[0] != row {
						continue
					}
					a.rows[d+1] = sub
				} else if holds(col, ps[:k], v) {
					continue
				}
			}
			ok := true
			for _, s := range steps[level] {
				if s != small && !narrow(s, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if !atomLast && short {
				a.rows[d+1] = filter(a.bufs[d+1][:0], col, ps[k:], v)
			}
			if levelCounts != nil {
				levelCounts[level]++
			}
			if last {
				if err := emit(); err != nil {
					return false, err
				}
				found = true
			} else {
				f, err := extend(level + 1)
				if err != nil {
					return false, err
				}
				found = found || f
			}
			if found && witness {
				return true, nil
			}
		}
		return found, nil
	}
	if len(order) == 0 {
		if err := emit(); err != nil {
			return nil, st, err
		}
	} else if _, err := extend(0); err != nil {
		return nil, st, err
	}
	if out == nil {
		out = relation.NewFromColumns(q.Head.Relation, headAttrs(q), outCols)
	}
	if tr != nil {
		for level, v := range order {
			sp := tr.Op(trace.KindJoin, "extend "+string(v))
			sp.AddOut(int(levelCounts[level]))
			sp.End()
		}
		stage.AddOut(out.Size())
	}
	st.MaxIntermediate = out.Size()
	return out, st, nil
}

// holds reports whether any of the rows holds v in col.
func holds(col []relation.Value, rows []int32, v relation.Value) bool {
	for _, r := range rows {
		if col[r] == v {
			return true
		}
	}
	return false
}

// filter appends to dst the rows that hold v in col.
func filter(dst []int32, col []relation.Value, rows []int32, v relation.Value) []int32 {
	for _, r := range rows {
		if col[r] == v {
			dst = append(dst, r)
		}
	}
	return dst
}
