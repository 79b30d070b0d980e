package main

// The ingest-read workload: writes beside reads on the epoch store. One
// operation is Begin → Append(50 rows) → Commit, then one Evaluate on the
// new live epoch for each of the two queries, with a snapshot of the base
// epoch held throughout.

import (
	"context"
	"fmt"
	"math"
	"time"

	"cqbound"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
	"cqbound/internal/plan"
)

const (
	twoHopText = "Q(X,Z) <- E(X,Y), F(Y,Z)."
	// ingestBatch is the rows one commit appends to E.
	ingestBatch = 50
	// pinnedEvery is how often the held base snapshot is re-evaluated.
	pinnedEvery = 20
)

// refGraph maintains the answers of the triangle over E and the two-hop
// E⋈F incrementally, edge by edge, with hand-written adjacency joins: the
// reference path every read is checked against. It shares no code with
// the engine, and because a result's hash is a sum over its tuples, each
// appended edge adds exactly the hashes of the tuples it creates.
type refGraph struct {
	universe int
	nodeHash []uint64
	e        map[[2]int32]bool
	eOut     [][]int32
	eIn      [][]int32
	f        map[[2]int32]bool
	fOut     [][]int32
	triSeen  map[[3]int32]bool
	hopSeen  map[[2]int32]bool
	tri, hop resultSig
}

func newRefGraph(universe int) *refGraph {
	g := &refGraph{universe: universe, nodeHash: make([]uint64, universe),
		e: make(map[[2]int32]bool), f: make(map[[2]int32]bool),
		eOut: make([][]int32, universe), eIn: make([][]int32, universe), fOut: make([][]int32, universe),
		triSeen: make(map[[3]int32]bool), hopSeen: make(map[[2]int32]bool)}
	for i := range g.nodeHash {
		g.nodeHash[i] = strHash([]byte(node(i)))
	}
	return g
}

func (g *refGraph) tupleHash(nodes ...int32) uint64 {
	h := uint64(tupleSeed)
	for _, n := range nodes {
		h = foldCol(h, g.nodeHash[n])
	}
	return finishTuple(h)
}

func (g *refGraph) addTri(x, y, z int32) {
	k := [3]int32{x, y, z}
	if !g.triSeen[k] {
		g.triSeen[k] = true
		g.tri.Rows++
		g.tri.Hash += g.tupleHash(x, y, z)
	}
}

func (g *refGraph) addHop(x, z int32) {
	k := [2]int32{x, z}
	if !g.hopSeen[k] {
		g.hopSeen[k] = true
		g.hop.Rows++
		g.hop.Hash += g.tupleHash(x, z)
	}
}

// addF adds an F edge; F is loaded before any E edge and never changes.
func (g *refGraph) addF(a, b int32) {
	if k := [2]int32{a, b}; !g.f[k] {
		g.f[k] = true
		g.fOut[a] = append(g.fOut[a], b)
	}
}

// addE adds an E edge and every result tuple it completes. The triangle
// Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z) can use the new edge in any of its
// three atoms.
func (g *refGraph) addE(a, b int32) {
	k := [2]int32{a, b}
	if g.e[k] {
		return
	}
	g.e[k] = true
	g.eOut[a] = append(g.eOut[a], b)
	g.eIn[b] = append(g.eIn[b], a)
	for _, z := range g.eOut[b] { // as E(X,Y): X=a, Y=b
		if g.e[[2]int32{a, z}] {
			g.addTri(a, b, z)
		}
	}
	for _, x := range g.eIn[a] { // as E(Y,Z): Y=a, Z=b
		if g.e[[2]int32{x, b}] {
			g.addTri(x, a, b)
		}
	}
	for _, y := range g.eOut[a] { // as E(X,Z): X=a, Z=b
		if g.e[[2]int32{y, b}] {
			g.addTri(a, y, b)
		}
	}
	for _, z := range g.fOut[b] {
		g.addHop(a, z)
	}
}

// epochRef is what the two queries must answer after one commit.
type epochRef struct {
	tri, hop resultSig
	eRows    int
}

type intEdge [2]int32

func intEdges(rng interface{ Intn(int) int }, n, universe int) []intEdge {
	out := make([]intEdge, n)
	for i := range out {
		out[i] = intEdge{int32(rng.Intn(universe)), int32(rng.Intn(universe))}
	}
	return out
}

type ingestInstance struct {
	cfg      config
	eng      *cqbound.Engine
	hasher   *sigHasher
	universe int
	fRows    int
	// loadE and loadF are the edges of the initial commit.
	loadE, loadF []intEdge
	triQ         *cqbound.Query
	hopQ         *cqbound.Query
	triC         float64
	hopC         float64
	// deltas is the seeded stream of appended edges; refs[i] is the
	// expected state after op i's commit (refs[0] after the initial load).
	deltas []intEdge
	graph  *refGraph
	refs   []epochRef
	base   *cqbound.Snapshot
	nodeV  []cqbound.Value
	ops    int // ops done so far, across run segments
}

func setupIngestRead(ctx context.Context, cfg config) (instance, error) {
	universe := cfg.scale(1000, 8, 64)
	loadRows := cfg.scale(10000, 8, 256)
	eEdges := intEdges(streamRNG(cfg.Seed, 31), loadRows, universe)
	fEdges := intEdges(streamRNG(cfg.Seed, 32), loadRows, universe)
	const precomputed = 512 // more are derived on demand, outside any timing
	in := &ingestInstance{cfg: cfg, universe: universe, graph: newRefGraph(universe), loadE: eEdges, loadF: fEdges,
		deltas: intEdges(streamRNG(cfg.Seed, 33), precomputed*ingestBatch, universe),
		triQ:   cqbound.MustParse(triangleText), hopQ: cqbound.MustParse(twoHopText)}
	opts, err := engineOptions(cfg, 0)
	if err != nil {
		return nil, err
	}
	in.eng = cqbound.NewEngine(opts...)
	in.hasher = newSigHasher(in.eng.Dict())
	in.nodeV = make([]cqbound.Value, universe)
	for i := range in.nodeV {
		in.nodeV[i] = in.eng.Dict().Intern(node(i))
	}
	if in.triC, err = colorNumber(in.triQ); err != nil {
		return nil, err
	}
	if in.hopC, err = colorNumber(in.hopQ); err != nil {
		return nil, err
	}

	// Load: F first (the reference graph needs it before E's edges), then
	// half of triangle-50x's E, in one commit.
	tx := in.eng.Begin()
	for _, rel := range []string{"E", "F"} {
		if err := tx.Create(rel, "a", "b"); err != nil {
			return nil, err
		}
	}
	for _, e := range fEdges {
		in.graph.addF(e[0], e[1])
		if err := tx.Append("F", in.tuple(e)); err != nil {
			return nil, err
		}
	}
	in.fRows = len(in.graph.f)
	for _, e := range eEdges {
		in.graph.addE(e[0], e[1])
		if err := tx.Append("E", in.tuple(e)); err != nil {
			return nil, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	in.refs = []epochRef{in.snapRef()}
	for i := 0; i < precomputed; i++ {
		in.extendRefs()
	}
	in.base = in.eng.Snapshot()

	// The incremental reference is itself checked once, against NaiveCtx
	// on the loaded epoch; the first evaluations also warm the memos the
	// commits will extend.
	for _, q := range []*cqbound.Query{in.triQ, in.hopQ} {
		naive, _, err := eval.NaiveCtx(ctx, q, in.base.DB())
		if err != nil {
			return nil, err
		}
		want := in.refs[0].tri
		if q == in.hopQ {
			want = in.refs[0].hop
		}
		if got := in.hasher.sig(naive); got != want {
			return nil, fmt.Errorf("incremental reference %+v disagrees with NaiveCtx %+v on the loaded epoch", want, got)
		}
		out, _, err := in.eng.Evaluate(ctx, q, in.base.DB())
		if err != nil {
			return nil, err
		}
		if got := in.hasher.sig(out); got != want {
			return nil, fmt.Errorf("warm-up: engine answered %+v, reference %+v", got, want)
		}
	}
	return in, nil
}

func (in *ingestInstance) tuple(e intEdge) cqbound.Tuple {
	return cqbound.Tuple{in.nodeV[e[0]], in.nodeV[e[1]]}
}

func (in *ingestInstance) snapRef() epochRef {
	return epochRef{tri: in.graph.tri, hop: in.graph.hop, eRows: len(in.graph.e)}
}

// extendRefs applies the next op's batch to the reference graph.
func (in *ingestInstance) extendRefs() {
	i := len(in.refs) - 1
	for len(in.deltas) < (i+1)*ingestBatch {
		rng := streamRNG(in.cfg.Seed, 1000+int64(len(in.deltas)))
		in.deltas = append(in.deltas, intEdges(rng, 64*ingestBatch, in.universe)...)
	}
	for _, e := range in.deltas[i*ingestBatch : (i+1)*ingestBatch] {
		in.graph.addE(e[0], e[1])
	}
	in.refs = append(in.refs, in.snapRef())
}

func (in *ingestInstance) info() map[string]any {
	return map[string]any{"B": 0, "loaded_rows_E": in.refs[0].eRows, "rows_F": in.fRows, "batch_rows": ingestBatch,
		"op": "Begin+Append(50)+Commit, then Evaluate of the triangle and the two-hop on the new live epoch, 1 caller; base snapshot re-read every 20th op"}
}

func (in *ingestInstance) close() error {
	in.base.Close()
	return in.eng.Close()
}

// verify checks one read against the reference for that epoch and the
// paper's bound rmax^C.
func (in *ingestInstance) verify(q *cqbound.Query, ref epochRef, out *cqbound.Relation, err error, what string, res *result) bool {
	want, oracle := ref.tri, math.Pow(float64(ref.eRows), in.triC)
	if q == in.hopQ {
		want, oracle = ref.hop, math.Pow(float64(max(ref.eRows, in.fRows)), in.hopC)
	}
	switch {
	case err != nil:
		res.fail("%s: %v", what, err)
	case float64(out.Size()) > oracle:
		res.fail("%s: %d rows exceed the paper's bound %g", what, out.Size(), oracle)
	default:
		if got := in.hasher.sig(out); got != want {
			res.fail("%s: result %+v differs from reference %+v", what, got, want)
			return false
		}
		return true
	}
	return false
}

func (in *ingestInstance) run(ctx context.Context, d time.Duration, rec *recorder) *result {
	res := newResult()
	before := in.eng.MetricsSnapshot()
	start := time.Now()
	for {
		in.op(ctx, rec, res)
		if time.Since(start) >= d || ctx.Err() != nil {
			break
		}
	}
	res.Wall = time.Since(start)
	after := in.eng.MetricsSnapshot()
	countGauges(before, after, res.Attempted, res)
	res.Counts["commits"] = gaugeDelta(before, after, "epoch_commits", float64(res.Attempted))
	return res
}

func (in *ingestInstance) op(ctx context.Context, rec *recorder, res *result) {
	i := in.ops
	in.ops++
	if len(in.refs) < i+2 {
		in.extendRefs()
	}
	ref := in.refs[i+1]
	batch := in.deltas[i*ingestBatch : (i+1)*ingestBatch]
	failedBefore := res.Failed
	root := rec.begin(nil, i+1, "bench", "op")

	s := rec.begin(root, i+1, "txn", "Engine.Begin+Txn.Append")
	t0 := time.Now()
	tx := in.eng.Begin()
	var err error
	for _, e := range batch {
		if err = tx.Append("E", in.tuple(e)); err != nil {
			break
		}
	}
	t1 := time.Now()
	s.end()
	s = rec.begin(root, i+1, "txn", "Txn.Commit")
	if err == nil {
		_, err = tx.Commit()
	}
	t2 := time.Now()
	s.end()
	if err != nil {
		res.fail("op %d commit: %v", i, err)
	}

	// Both queries read the new epoch: each plans anew (plans are keyed
	// by epoch) over the indexes and partitions the commit carried over.
	s = rec.begin(root, i+1, "txn", "Engine.Snapshot")
	t3 := time.Now()
	snap := in.eng.Snapshot()
	s.end()
	var readMs [2]float64
	for k, r := range in.reads() {
		s = rec.begin(root, i+1, "engine", "Engine.Evaluate:"+r.name)
		tq := time.Now()
		out, st, err := in.eng.Evaluate(ctx, r.q, snap.DB())
		readMs[k] = float64(time.Since(tq).Nanoseconds()) / 1e6
		s.end()
		if in.verify(r.q, ref, out, err, fmt.Sprintf("op %d read %s", i, r.name), res) {
			s.count("rows", int64(out.Size()))
			res.Peaks["eval.max_intermediate_rows"] = math.Max(res.Peaks["eval.max_intermediate_rows"], float64(st.MaxIntermediate))
		}
	}
	t4 := time.Now()
	if rec != nil {
		for _, r := range in.reads() {
			in.coldSteps(rec, root, i+1, r.q, r.name, snap.DB(), res)
		}
	}
	snap.Close()

	// The reader that pinned the base epoch must keep seeing it.
	if i%pinnedEvery == pinnedEvery-1 {
		r := in.reads()[i/pinnedEvery%2]
		s = rec.begin(root, i+1, "engine", "Engine.Evaluate:pinned-"+r.name)
		out, _, err := in.eng.Evaluate(ctx, r.q, in.base.DB())
		s.end()
		in.verify(r.q, in.refs[0], out, err, fmt.Sprintf("op %d pinned read %s", i, r.name), res)
	}
	root.end()

	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	res.Attempted++
	if res.Failed > failedBefore {
		res.Failed = failedBefore + 1
	}
	res.Lat = append(res.Lat, ms(t0, t2)+ms(t3, t4))
	res.add("stage_us", ms(t0, t1)*1e3)
	res.add("commit_apply", ms(t1, t2))
	res.add("commit", ms(t0, t2))
	res.add("read", ms(t3, t4))
	for k, r := range in.reads() {
		res.add("read:"+r.name, readMs[k])
	}
}

// namedQuery is one of the two queries every op reads.
type namedQuery struct {
	name string
	q    *cqbound.Query
}

func (in *ingestInstance) reads() [2]namedQuery {
	return [2]namedQuery{{"triangle", in.triQ}, {"two-hop", in.hopQ}}
}

// coldSteps replays, as probes on the epoch just read, the parse and
// planning steps the read paid (plans are keyed by epoch, so every read
// after a commit plans anew).
func (in *ingestInstance) coldSteps(rec *recorder, root *span, op int, q *cqbound.Query, qname string, db *cqbound.Database, res *result) {
	s := rec.probe(root, op, "cq", "cq.Parse")
	parsed, err := cq.Parse(q.String())
	s.end()
	if err != nil {
		return
	}
	res.add("parse_us:"+qname, s.durationMs()*1e3)
	s = rec.probe(root, op, "plan", "plan.ChooseForDB")
	p, err := plan.ChooseForDB(parsed, db)
	s.end()
	if err != nil {
		return
	}
	res.add("choose_us:"+qname, s.durationMs()*1e3)
	s = rec.probe(root, op, "plan", "plan.BoundRows")
	bound, _, _ := plan.BoundRows(p, parsed, db)
	s.end()
	s.count("bound_rows", int64(math.Min(bound, math.MaxInt64/2)))
	res.add("bound_us:"+qname, s.durationMs()*1e3)
}

func (in *ingestInstance) probe(ctx context.Context, rec *recorder, base, traced *result, vals map[string]float64) {
	root := rec.begin(nil, 0, "bench", "probes")
	defer root.end()
	pb := &prober{ctx: ctx, rec: rec, root: root, hasher: in.hasher, reps: 1, vals: vals, checks: newResult()}
	traced.report(vals)
	series := func(name string) []float64 {
		return append(append([]float64(nil), base.Series[name]...), traced.Series[name]...)
	}
	commits := series("commit")
	vals["txn.stage_us"] = median(series("stage_us"))
	vals["txn.commit_apply_ms"] = median(series("commit_apply"))
	vals["txn.commit_p50_ms"] = median(commits)
	vals["txn.commit_p95_ms"] = percentile(sorted(commits), 0.95)
	vals["txn.ingest_rows_per_s"] = ratio(float64(len(commits)*ingestBatch), sum(commits)/1e3)
	vals["txn.read_after_commit_p50_ms"] = median(series("read"))
	vals["txn.snapshot_us"] = 1e3 * pb.timed("txn", "Engine.Snapshot+Close", 20, func() error {
		in.eng.Snapshot().Close()
		return nil
	})
	vals["eval.max_intermediate_rows"] = math.Max(base.Peaks["eval.max_intermediate_rows"], traced.Peaks["eval.max_intermediate_rows"])
	for _, qname := range []string{"triangle", "two-hop"} {
		vals["cq.parse_us"] += median(traced.Series["parse_us:"+qname])
		vals["plan.choose_us"] += median(traced.Series["choose_us:"+qname])
		vals["plan.bound_rows_us"] += median(traced.Series["bound_us:"+qname])
	}

	// The layers on the final epoch's data, and the cost of reaching the
	// same state cold: a fresh engine holding the final data in one
	// commit, its first Evaluate building every memo from scratch.
	final := in.refs[in.ops]
	snap := in.eng.Snapshot()
	defer snap.Close()
	cold := cqbound.NewEngine(cqbound.WithSharding(shardThreshold, shardCount))
	tx := cold.Begin()
	err := tx.Create("E", "a", "b")
	if err == nil {
		err = tx.Create("F", "a", "b")
	}
	d := cold.Dict()
	appendAll := func(rel string, edges []intEdge) {
		for _, e := range edges {
			if err == nil {
				err = tx.Append(rel, cqbound.Tuple{d.Intern(node(int(e[0]))), d.Intern(node(int(e[1])))})
			}
		}
	}
	appendAll("F", in.loadF)
	appendAll("E", in.loadE)
	appendAll("E", in.deltas[:in.ops*ingestBatch])
	if err == nil {
		_, err = tx.Commit()
	}
	if err != nil {
		pb.checks.fail("building the cold engine: %v", err)
	}
	coldSnap := cold.Snapshot()
	defer coldSnap.Close()
	coldHasher := newSigHasher(cold.Dict())
	var refresh float64
	var lqs []*libQuery
	for _, qc := range []struct {
		name string
		q    *cqbound.Query
		want resultSig
		c    float64
	}{{"triangle", in.triQ, final.tri, in.triC}, {"two-hop", in.hopQ, final.hop, in.hopC}} {
		var out *cqbound.Relation
		coldMs := timeMs(func() { out, _, err = cold.Evaluate(ctx, qc.q, coldSnap.DB()) })
		pb.checks.Attempted++
		if err != nil {
			pb.checks.fail("cold %s: %v", qc.name, err)
		} else if got := coldHasher.sig(out); got != qc.want {
			pb.checks.fail("cold %s: result %+v differs from reference %+v", qc.name, got, qc.want)
		}
		reads := series("read:" + qc.name)
		refresh += ratio(median(reads[max(0, len(reads)-10):]), coldMs) / 2
		bound, _ := in.eng.BoundRows(qc.q, snap.DB())
		lqs = append(lqs, &libQuery{name: qc.name, text: qc.q.String(), q: qc.q, db: snap.DB(), ref: qc.want,
			oracle: math.Pow(float64(max(final.eRows, in.fRows)), qc.c), planBound: bound})
	}
	vals["txn.refresh_vs_rebuild"] = refresh
	var execSum, plannedSum, bestSum float64
	for _, lq := range lqs {
		exec, best := pb.query(lq)
		planned := medianOf(3, func() { in.eng.Evaluate(ctx, lq.q, lq.db) })
		execSum, bestSum, plannedSum = execSum+exec, bestSum+best, plannedSum+planned
	}
	pb.bounds(lqs)
	vals["plan.planned_over_best"] = ratio(plannedSum, bestSum)
	vals["engine.overhead_frac"] = 1 - ratio(execSum, plannedSum)
	pb.intern()

	// Every op must have published an epoch, and the commits must have
	// carried memos over or rebuilt them.
	memos := vals["txn.incremental_memos"] + vals["txn.rebuilt_relations"]
	vals["bench.intent_ok"] = b2f(memos > 0 && base.Counts["commits"] == 1 && traced.Counts["commits"] == 1)
	pb.mergeInto(traced)
}
