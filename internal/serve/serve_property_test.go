// Property-based serving harness (seventh harness pass): the same random
// query/database pairs as the eval-package harnesses, but every
// interaction goes through a live HTTP server — the database arrives via
// POST /commit (an initial load plus delta batches published by a
// concurrent writer), and concurrent HTTP clients evaluate via GET /query
// (mixed traced and untraced, some against the live epoch, some against
// epochs they pin via POST /snapshot). The property is end-to-end
// snapshot isolation: every response must equal Naive evaluated on
// exactly the epoch the response reports, regardless of commits racing
// the request, under the 256-byte forcing budget and every harness shard
// count. Run with -race this is the concurrency check on the whole
// request lifecycle (admit → pin epoch → evaluate → release).
package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	cqbound "cqbound"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// The harness constants mirror internal/eval's property passes: same
// seed, same iteration count, same shard ladder, same forcing budget.
const (
	servePropertyIterations = 220
	servePropertyBaseSeed   = 20260729
	serveSpillBudgetBytes   = 256
	// serveWriterBatches is how many delta commits race the readers.
	serveWriterBatches = 2
)

var serveShardCounts = []int{1, 2, 3, 5, 16}

// stringRow is one tuple at the string boundary, tagged with its relation.
type stringRow struct {
	rel  string
	vals []string
}

func TestPropertyServeSnapshotsAgree(t *testing.T) {
	iters := servePropertyIterations
	if testing.Short() {
		iters = 60
	}
	profiles := []datagen.QueryParams{
		{MaxVars: 5, MaxAtoms: 4, MaxArity: 3, HeadFraction: 0.7, RepeatRelationProb: 0.3, SimpleFDProb: 0.15},
		{MaxVars: 3, MaxAtoms: 5, MaxArity: 2, HeadFraction: 0.5, RepeatRelationProb: 0.6},
		{MaxVars: 6, MaxAtoms: 3, MaxArity: 4, HeadFraction: 0.9, RepeatRelationProb: 0.2, CompoundFDProb: 0.3},
		{MaxVars: 2, MaxAtoms: 3, MaxArity: 3, HeadFraction: 0.6, RepeatRelationProb: 0.5, SimpleFDProb: 0.3},
	}
	dbProfiles := []datagen.DBParams{
		{Tuples: 12, Universe: 6},
		{Tuples: 25, Universe: 4},
		{Tuples: 6, Universe: 12},
		{Tuples: 30, Universe: 8, ZipfS: 1.7},
		{Tuples: 20, Universe: 15, ZipfS: 2.5},
	}
	spillDir := t.TempDir()
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(servePropertyBaseSeed + int64(i)))
		q := datagen.RandomQuery(rng, profiles[i%len(profiles)])
		db := datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
		p := serveShardCounts[i%len(serveShardCounts)]
		if msg := serveDisagreement(t, rng, p, spillDir, q, db); msg != "" {
			t.Fatalf("iteration %d (seed %d, shards %d, budget %d): %s",
				i, servePropertyBaseSeed+int64(i), p, serveSpillBudgetBytes, msg)
		}
	}
}

// serveDisagreement runs one iteration: load db into a served engine as an
// initial HTTP commit plus concurrent delta commits, fan HTTP readers out
// against the moving epoch stream, and return a description of the first
// violation ("" when every response matched Naive on its reported epoch).
func serveDisagreement(t *testing.T, rng *rand.Rand, p int, spillDir string, q *cqbound.Query, db *cqbound.Database) string {
	s := newTestSrv(t,
		[]cqbound.Option{
			cqbound.WithSharding(0, p),
			cqbound.WithMemoryBudget(serveSpillBudgetBytes),
			cqbound.WithSpillDir(spillDir),
		}, nil)
	qtext := q.String()
	names := db.Names()
	attrs := make(map[string][]string, len(names))

	// Split every relation's rows into an initial load plus per-batch
	// deltas, drawn before any goroutine starts so the iteration stays
	// reproducible from its seed.
	var initRows []stringRow
	batches := make([][]stringRow, serveWriterBatches)
	for _, name := range names {
		r := db.Relation(name)
		attrs[name] = r.Attrs
		r.Each(func(tp relation.Tuple) bool {
			row := stringRow{rel: name, vals: tp.Strings()}
			if b := rng.Intn(2 * serveWriterBatches); b < serveWriterBatches {
				batches[b] = append(batches[b], row)
			} else {
				initRows = append(initRows, row)
			}
			return true
		})
	}
	initOps := make([]op, 0, 2*len(names))
	for _, name := range names {
		initOps = append(initOps, op{Op: "create", Rel: name, Attrs: attrs[name]})
	}
	initOps = append(initOps, appendOps(initRows)...)
	initEpoch := s.commit(t, initOps)

	// epochRows maps every published epoch to its cumulative row set; the
	// writer extends it as commits return. Readers block briefly on
	// rowsAt until the epoch they observed is recorded (a commit
	// publishes before the writer can note the mapping).
	var (
		epochMu   sync.Mutex
		epochRows = map[uint64][]stringRow{initEpoch: initRows}
	)
	rowsAt := func(epoch uint64) ([]stringRow, bool) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			epochMu.Lock()
			rows, ok := epochRows[epoch]
			epochMu.Unlock()
			if ok || time.Now().After(deadline) {
				return rows, ok
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// The writer publishes the delta batches over HTTP while readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		have := initRows
		for _, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			epoch := s.commit(t, appendOps(batch))
			have = append(have[:len(have):len(have)], batch...)
			epochMu.Lock()
			epochRows[epoch] = have
			epochMu.Unlock()
		}
	}()

	// Concurrent HTTP clients: half read the live epoch, half pin one via
	// a snapshot session first; tracing alternates per request. Whatever
	// epoch a response reports, its tuples must equal Naive on that
	// epoch's frozen row set.
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				traced := (reader+round)%2 == 0
				pin := reader%2 == 1
				var epochArg string
				var pinned uint64
				if pin {
					pinned = s.snapshot(t)
					epochArg = strconv.FormatUint(pinned, 10)
				}
				res, code := s.query(t, qtext, epochArg, traced)
				if code != 200 {
					report("reader %d round %d: status %d", reader, round, code)
					return
				}
				if pin {
					if res.Epoch != pinned {
						report("pinned reader got epoch %d, pinned %d", res.Epoch, pinned)
					}
					s.releaseSnapshot(t, pinned)
				}
				rows, ok := rowsAt(res.Epoch)
				if !ok {
					report("response reports epoch %d, never published", res.Epoch)
					return
				}
				ref, _, err := eval.NaiveCtx(context.Background(), q, buildDB(names, attrs, rows))
				if err != nil {
					report("naive on epoch %d: %v", res.Epoch, err)
					return
				}
				var refTuples [][]string
				ref.Each(func(tp relation.Tuple) bool {
					refTuples = append(refTuples, tp.Strings())
					return true
				})
				if !sameTuples(res.Tuples, refTuples) {
					report("epoch %d (traced=%v pin=%v): server returned %d tuples, naive %d",
						res.Epoch, traced, pin, len(res.Tuples), len(refTuples))
				}
			}
		}(reader)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		return msg
	default:
	}

	// End state: with every batch in, the live answer equals Naive on the
	// full original database.
	res, code := s.query(t, qtext, "", false)
	if code != 200 {
		return fmt.Sprintf("end state: status %d", code)
	}
	ref, _, err := eval.NaiveCtx(context.Background(), q, db)
	if err != nil {
		return fmt.Sprintf("end state naive: %v", err)
	}
	var refTuples [][]string
	ref.Each(func(tp relation.Tuple) bool {
		refTuples = append(refTuples, tp.Strings())
		return true
	})
	if !sameTuples(res.Tuples, refTuples) {
		return fmt.Sprintf("end state: server returned %d tuples, naive %d", len(res.Tuples), len(refTuples))
	}
	return ""
}

// appendOps groups rows into one append op per relation, preserving order.
func appendOps(rows []stringRow) []op {
	byRel := map[string]int{}
	var ops []op
	for _, row := range rows {
		i, ok := byRel[row.rel]
		if !ok {
			i = len(ops)
			byRel[row.rel] = i
			ops = append(ops, op{Op: "append", Rel: row.rel})
		}
		ops[i].Rows = append(ops[i].Rows, row.vals)
	}
	return ops
}

// buildDB materializes a frozen epoch's reference database in the
// process-wide dictionary (the string boundary — the served engine
// interns privately).
func buildDB(names []string, attrs map[string][]string, rows []stringRow) *cqbound.Database {
	db := cqbound.NewDatabase()
	rels := make(map[string]*cqbound.Relation, len(names))
	for _, name := range names {
		r := cqbound.NewRelation(name, attrs[name]...)
		rels[name] = r
		db.MustAdd(r)
	}
	for _, row := range rows {
		vals := make(relation.Tuple, len(row.vals))
		for i, v := range row.vals {
			vals[i] = cqbound.V(v)
		}
		if _, err := rels[row.rel].Insert(vals); err != nil {
			panic(err)
		}
	}
	return db
}
