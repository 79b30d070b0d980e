// Property-based transactional-ingest harness (fifth harness pass): the
// same random query/database pairs as the sharded and spill harnesses, but
// the database arrives through the epoch-based transaction API — an
// initial commit plus a stream of delta batches published by a concurrent
// writer — while pinned readers evaluate against whatever epoch they
// caught. Snapshot isolation is the property: every reader's planned
// execution must equal Naive evaluated on that reader's own frozen epoch
// copy, regardless of what the writer publishes meanwhile, under the
// forced-spill budget and every harness shard count, and the fully-ingested
// end state must equal the original database tuple-for-tuple (compared at
// the string boundary — the engine interns in its private dictionary).
// Run with -race this doubles as the concurrency check on the commit,
// pin, and sweep paths.
package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	cqbound "cqbound"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// ingestWriterBatches is how many delta commits the concurrent writer
// publishes after the initial load.
const ingestWriterBatches = 3

func TestPropertyIngestSnapshotsAgree(t *testing.T) {
	iters := propertyIterations
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
		rng := rand.New(rand.NewSource(propertyBaseSeed + int64(i)))
		q := datagen.RandomQuery(rng, profiles[i%len(profiles)])
		db := datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
		p := shardCounts[i%len(shardCounts)]
		if msg := ingestDisagreement(t, rng, p, spillDir, q, db); msg != "" {
			t.Fatalf("iteration %d (seed %d, shards %d, budget %d): %s",
				i, propertyBaseSeed+int64(i), p, spillBudgetBytes, msg)
		}
	}
}

// ingestDisagreement loads db into a fresh budgeted engine as an initial
// commit plus ingestWriterBatches concurrent delta commits, runs pinned
// readers against the moving epoch stream, and returns a description of
// the first violation ("" when every snapshot held).
func ingestDisagreement(t *testing.T, rng *rand.Rand, p int, spillDir string, q *cqbound.Query, db *cqbound.Database) string {
	eng := cqbound.NewEngine(
		cqbound.WithSharding(0, p),
		cqbound.WithMemoryBudget(spillBudgetBytes),
		cqbound.WithSpillDir(spillDir),
	)
	defer eng.Close()
	ctx := context.Background()

	// Split every relation's rows into an initial slice plus per-batch
	// deltas. The split is drawn before any goroutine starts so the
	// iteration stays reproducible from its seed.
	type stringRow struct {
		rel  string
		vals []string
	}
	batches := make([][]stringRow, ingestWriterBatches)
	init := eng.Begin()
	for _, name := range db.Names() {
		r := db.Relation(name)
		if err := init.Create(name, r.Attrs...); err != nil {
			return fmt.Sprintf("create %s: %v", name, err)
		}
		r.Each(func(tp relation.Tuple) bool {
			if b := rng.Intn(2 * ingestWriterBatches); b < ingestWriterBatches {
				batches[b] = append(batches[b], stringRow{rel: name, vals: tp.Strings()})
			} else if err := init.Add(name, tp.Strings()...); err != nil {
				t.Error(err)
			}
			return true
		})
	}
	if _, err := init.Commit(); err != nil {
		return fmt.Sprintf("initial commit: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// The writer publishes the delta batches while the readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, batch := range batches {
			txn := eng.Begin()
			for _, row := range batch {
				if err := txn.Add(row.rel, row.vals...); err != nil {
					report("stage delta: %v", err)
					return
				}
			}
			if _, err := txn.Commit(); err != nil {
				report("delta commit: %v", err)
				return
			}
		}
	}()

	// Each reader pins whatever epoch is live when it looks, evaluates
	// through the engine, and checks the result against Naive on the SAME
	// frozen snapshot: the isolation property, oblivious to the writer.
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				snap := eng.Snapshot()
				ref, _, err := eval.NaiveCtx(ctx, q, snap.DB())
				if err != nil {
					report("naive on epoch %d: %v", snap.Epoch(), err)
					snap.Close()
					return
				}
				out, _, err := eng.Evaluate(ctx, q, snap.DB())
				if err != nil {
					report("engine on epoch %d: %v", snap.Epoch(), err)
					snap.Close()
					return
				}
				if !relation.Equal(ref, out) {
					report("epoch %d: engine produced %d tuples, naive on the same snapshot %d",
						snap.Epoch(), out.Size(), ref.Size())
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		return msg
	default:
	}

	// End state: once every batch is in, the live epoch holds exactly the
	// original database (string boundary — the dictionaries differ).
	snap := eng.Snapshot()
	defer snap.Close()
	d := eng.Dict()
	for _, name := range db.Names() {
		want := db.Relation(name)
		got := snap.DB().Relation(name)
		if got == nil || got.Size() != want.Size() {
			gotSize := -1
			if got != nil {
				gotSize = got.Size()
			}
			return fmt.Sprintf("end state: %s has %d rows, want %d", name, gotSize, want.Size())
		}
		rows := make(map[string]bool, got.Size())
		got.Each(func(tp relation.Tuple) bool {
			rows[strings.Join(tp.StringsIn(d), "\x00")] = true
			return true
		})
		missing := ""
		want.Each(func(tp relation.Tuple) bool {
			if !rows[strings.Join(tp.Strings(), "\x00")] {
				missing = strings.Join(tp.Strings(), ",")
				return false
			}
			return true
		})
		if missing != "" {
			return fmt.Sprintf("end state: %s lost tuple (%s) across the batched ingest", name, missing)
		}
	}
	return ""
}
