package cqbound

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cqbound/internal/eval"
)

// ingestChain commits a fresh relation R(A,B) holding the chain rows
// (n_i, n_{i+1}) for i in [0, n) and returns the published epoch.
func ingestChain(t *testing.T, eng *Engine, n int) uint64 {
	t.Helper()
	txn := eng.Begin()
	if err := txn.Create("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := txn.Add("R", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

func evalSize(t *testing.T, eng *Engine, q *Query, db *Database) int {
	t.Helper()
	out, _, err := eng.Evaluate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	return out.Size()
}

func TestTxnCommitPublishesEpochs(t *testing.T) {
	eng := NewEngine()
	if got := eng.LiveEpoch(); got != 1 {
		t.Fatalf("fresh engine lives at epoch %d, want 1", got)
	}
	if epoch := ingestChain(t, eng, 3); epoch != 2 {
		t.Fatalf("first commit published epoch %d, want 2", epoch)
	}
	q := MustParse("Q(X,Z) <- R(X,Y), R(Y,Z).")
	snap := eng.Snapshot()
	defer snap.Close()
	if got := evalSize(t, eng, q, snap.DB()); got != 2 {
		t.Fatalf("chain of 3 edges has %d length-2 paths, want 2", got)
	}

	// Appends land as the next epoch; duplicates drop (set semantics).
	txn := eng.Begin()
	txn.Add("R", "n3", "n4")
	txn.Add("R", "n0", "n1") // duplicate of a stored row
	txn.Add("R", "n3", "n4") // duplicate within the batch
	epoch, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("second commit published epoch %d, want 3", epoch)
	}
	snap2 := eng.Snapshot()
	defer snap2.Close()
	if r := snap2.DB().Relation("R"); r.Size() != 4 {
		t.Fatalf("R holds %d rows after dedup, want 4", r.Size())
	}
	if got := evalSize(t, eng, q, snap2.DB()); got != 3 {
		t.Fatalf("chain of 4 edges has %d length-2 paths, want 3", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	eng := NewEngine()
	ingestChain(t, eng, 3)
	q := MustParse("Q(X,Y) <- R(X,Y).")

	old := eng.Snapshot()
	defer old.Close()
	if old.Epoch() != 2 {
		t.Fatalf("snapshot pinned epoch %d, want 2", old.Epoch())
	}

	// A commit after the pin must be invisible to the pinned reader.
	txn := eng.Begin()
	txn.Add("R", "n9", "n10")
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := evalSize(t, eng, q, old.DB()); got != 3 {
		t.Fatalf("pinned reader sees %d rows, want the frozen 3", got)
	}
	live := eng.Snapshot()
	defer live.Close()
	if got := evalSize(t, eng, q, live.DB()); got != 4 {
		t.Fatalf("live reader sees %d rows, want 4", got)
	}

	// The retired-but-pinned epoch counts as active until its pin drains.
	if active, pinned := metric(t, eng, "epoch_active"), metric(t, eng, "epoch_pinned_readers"); active != 2 || pinned != 2 {
		t.Fatalf("stats = %d active / %d pinned, want 2/2", active, pinned)
	}
	old.Close()
	if active := metric(t, eng, "epoch_active"); active != 1 {
		t.Fatalf("%d epochs active after the old pin drained, want 1", active)
	}
}

func TestTxnRetract(t *testing.T) {
	eng := NewEngine()
	ingestChain(t, eng, 3)

	// Retract one row; retract-then-append of the same row keeps it.
	txn := eng.Begin()
	txn.Remove("R", "n0", "n1")
	txn.Remove("R", "n1", "n2")
	txn.Add("R", "n1", "n2")
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	r := snap.DB().Relation("R")
	if r.Size() != 2 {
		t.Fatalf("R holds %d rows, want 2", r.Size())
	}
	d := eng.Dict()
	has := func(a, b string) bool {
		va, oka := d.Lookup(a)
		vb, okb := d.Lookup(b)
		return oka && okb && r.Has(Tuple{va, vb})
	}
	if has("n0", "n1") || !has("n1", "n2") || !has("n2", "n3") {
		t.Fatalf("wrong surviving rows: %s", r.String())
	}
	if n := metric(t, eng, "epoch_rebuilt_relations"); n != 1 {
		t.Fatalf("retraction rebuilt %d relations, want 1", n)
	}

	// Retracting an absent tuple (and a never-interned string) is a no-op
	// that publishes nothing.
	before := eng.LiveEpoch()
	txn = eng.Begin()
	txn.Remove("R", "never-interned-xyzzy", "n1")
	txn.Remove("R", "n0", "n1") // already gone
	epoch, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != before {
		t.Fatalf("no-op commit published epoch %d, want to stay at %d", epoch, before)
	}
}

func TestTxnValidationIsAtomic(t *testing.T) {
	eng := NewEngine()
	ingestChain(t, eng, 2)
	before := eng.LiveEpoch()

	// A batch touching an unknown relation fails whole: the valid append
	// staged alongside it must not land.
	txn := eng.Begin()
	txn.Add("R", "n7", "n8")
	txn.Add("Nope", "x")
	if _, err := txn.Commit(); err == nil {
		t.Fatal("commit touching an unknown relation succeeded")
	}
	if eng.LiveEpoch() != before {
		t.Fatal("failed commit published an epoch")
	}
	snap := eng.Snapshot()
	defer snap.Close()
	if r := snap.DB().Relation("R"); r.Size() != 2 {
		t.Fatalf("failed commit leaked rows into R (%d rows)", r.Size())
	}
	if _, err := txn.Commit(); err == nil {
		t.Fatal("second commit of a dead txn succeeded")
	}

	// Arity mismatches and duplicate creations also fail validation.
	txn = eng.Begin()
	txn.Add("R", "only-one")
	if _, err := txn.Commit(); err == nil {
		t.Fatal("arity-mismatched append committed")
	}
	txn = eng.Begin()
	txn.Create("R", "A")
	if _, err := txn.Commit(); err == nil {
		t.Fatal("re-creating an existing relation committed")
	}
	// A relation without a name or without attributes is unreadable by
	// any query: Create refuses it.
	for _, c := range []struct {
		name  string
		attrs []string
	}{{"S", nil}, {"", []string{"a"}}} {
		if err := eng.Begin().Create(c.name, c.attrs...); err == nil {
			t.Fatalf("Create(%q, %q) staged a relation no query can read", c.name, c.attrs)
		}
	}
	if eng.LiveEpoch() != before {
		t.Fatal("failed validation published an epoch")
	}
}

// TestAppendCommitAllocsIndependentOfBase pins that an appending commit
// costs O(delta): it extends rows and leaves the new epoch's memos to be
// built on first read, so its allocations do not grow with the base even
// when every base memo (indexes, statistics, partitions) is warm. The
// median over nine commits skips the one in which Extend's append grows
// the column.
func TestAppendCommitAllocsIndependentOfBase(t *testing.T) {
	q := MustParse("Q(X,Z) <- R(X,Y), R(Y,Z).")
	medianAlloc := func(base int) uint64 {
		eng := NewEngine(WithSharding(1, 4))
		defer eng.Close()
		ingestChain(t, eng, base)
		var allocs []uint64
		var before, after runtime.MemStats
		for round, next := 0, base; round < 9; round++ {
			snap := eng.Snapshot()
			evalSize(t, eng, q, snap.DB())
			snap.Close()
			txn := eng.Begin()
			for end := next + 50; next < end; next++ {
				txn.Add("R", fmt.Sprintf("n%d", next), fmt.Sprintf("n%d", next+1))
			}
			runtime.ReadMemStats(&before)
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(allocs)
		return allocs[len(allocs)/2]
	}
	small, large := medianAlloc(2000), medianAlloc(64000)
	if large > 2*small {
		t.Fatalf("a 50-row commit allocates %d B on a 64 000-row base, %d B on a 2 000-row base: the commit pays for the base", large, small)
	}
}

// skewedTriangle commits R1(A,B) with 4 rows and R2(A,B), R3(A,B) with 50
// each, so the triangle over them leads with the small R1 (atom 0).
func skewedTriangle(t *testing.T, eng *Engine) {
	t.Helper()
	txn := eng.Begin()
	txn.Create("R1", "A", "B")
	txn.Create("R2", "A", "B")
	txn.Create("R3", "A", "B")
	for i := 0; i < 4; i++ {
		txn.Add("R1", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	for i := 0; i < 50; i++ {
		txn.Add("R2", fmt.Sprintf("a%d", i), fmt.Sprintf("c%d", i))
		txn.Add("R3", fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// growR1 commits n more R1 rows (a_j, b_j) from j = from on.
func growR1(t *testing.T, eng *Engine, from, n int) {
	t.Helper()
	txn := eng.Begin()
	for j := from; j < from+n; j++ {
		txn.Add("R1", fmt.Sprintf("a%d", j), fmt.Sprintf("b%d", j))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestAtomOrderFollowsEpoch is the regression test for stale plans: the
// project-early atom order is derived from each snapshot's own statistics,
// so an ingest that inverts the size skew flips the join order on the new
// epoch while the pinned old epoch keeps its old (still-correct) order.
func TestAtomOrderFollowsEpoch(t *testing.T) {
	eng := NewEngine()
	q := MustParse("Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).")
	skewedTriangle(t, eng)

	oldSnap := eng.Snapshot()
	defer oldSnap.Close()
	p1, err := eng.ExplainDB(q, oldSnap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Strategy != StrategyProjectEarly || len(p1.AtomOrder) != 3 {
		t.Fatalf("triangle planned as %v with order %v", p1.Strategy, p1.AtomOrder)
	}
	if p1.AtomOrder[0] != 0 {
		t.Fatalf("planner leads with atom %d, want the 4-row R1 (atom 0)", p1.AtomOrder[0])
	}

	// Invert the skew: R1 becomes the largest relation by far.
	growR1(t, eng, 1000, 400)
	liveSnap := eng.Snapshot()
	defer liveSnap.Close()
	p2, err := eng.ExplainDB(q, liveSnap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if p2.AtomOrder[0] == 0 {
		t.Fatal("stale plan: the new epoch still leads with the formerly-small R1")
	}

	// The pinned old epoch keeps its plan: same strategy, same order.
	p1again, err := eng.ExplainDB(q, oldSnap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if p1again.Strategy != p1.Strategy || !slices.Equal(p1again.AtomOrder, p1.AtomOrder) {
		t.Fatalf("old epoch's plan changed under a pinned reader: %v %v, was %v %v",
			p1again.Strategy, p1again.AtomOrder, p1.Strategy, p1.AtomOrder)
	}
}

// TestOnePlanPerQueryTextAcrossEpochs holds the cache rule: the engine
// plans a query text once, whatever epoch it is evaluated on. A
// project-early triangle and a Yannakakis two-hop run on the live snapshot
// after each of 5 commits and one Compact; every answer matches the naive
// reference on its own snapshot, the cache misses once per query text and
// holds two entries, and a snapshot pinned before the commits keeps its
// own atom order.
func TestOnePlanPerQueryTextAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	tri := MustParse("Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).")
	hop := MustParse("Q(X,Z) <- R1(X,Y), R3(Y,Z).")
	skewedTriangle(t, eng)
	old := eng.Snapshot()
	defer old.Close()

	check := func(db *Database) {
		t.Helper()
		for _, q := range []*Query{tri, hop} {
			got, _, err := eng.Evaluate(ctx, q, db)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := eval.NaiveCtx(ctx, q, db)
			if err != nil {
				t.Fatal(err)
			}
			if !RelationsEqual(got, want) {
				t.Fatalf("epoch %d: %s returned %d rows, the naive reference %d", db.Epoch(), q, got.Size(), want.Size())
			}
		}
	}
	check(old.DB())
	for k := 0; k < 6; k++ {
		if k < 5 {
			growR1(t, eng, 4+20*k, 20)
		} else if _, err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
		snap := eng.Snapshot()
		check(snap.DB())
		snap.Close()
	}
	if s, _ := eng.Explain(hop); s.Strategy != StrategyYannakakis {
		t.Fatalf("two-hop planned as %v, want Yannakakis", s.Strategy)
	}

	if m := metric(t, eng, "cache_misses"); m != 2 {
		t.Fatalf("cache_misses = %d after 7 epochs, want 2 (one per query text)", m)
	}
	if n := eng.CacheSize(); n != 2 {
		t.Fatalf("CacheSize = %d, want 2 (one entry per query text)", n)
	}

	live := eng.Snapshot()
	defer live.Close()
	pOld, err := eng.ExplainDB(tri, old.DB())
	if err != nil {
		t.Fatal(err)
	}
	pLive, err := eng.ExplainDB(tri, live.DB())
	if err != nil {
		t.Fatal(err)
	}
	if pOld.Strategy != StrategyProjectEarly || pOld.AtomOrder[0] != 0 {
		t.Fatalf("pinned snapshot's triangle is %v with order %v, want project-early led by the 4-row R1", pOld.Strategy, pOld.AtomOrder)
	}
	if pLive.AtomOrder[0] == 0 {
		t.Fatalf("live triangle still leads with R1 (%d rows), order %v", live.DB().Relation("R1").Size(), pLive.AtomOrder)
	}
	check(old.DB())
}

// TestEnginesHavePrivateDicts is the regression test for dictionary
// cross-contamination: two engines ingesting concurrently intern in their
// own dictionaries, never in each other's and never in the process-wide
// default. Run under -race this also exercises the commit/pin paths.
func TestEnginesHavePrivateDicts(t *testing.T) {
	defaultBefore := ValueDict().Len()
	engines := []*Engine{NewEngine(), NewEngine()}
	q := MustParse("Q(X,Y) <- R(X,Y).")

	var wg sync.WaitGroup
	for id, eng := range engines {
		wg.Add(1)
		go func(id int, eng *Engine) {
			defer wg.Done()
			txn := eng.Begin()
			txn.Create("R", "A", "B")
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
			var inner sync.WaitGroup
			for w := 0; w < 2; w++ {
				inner.Add(1)
				go func(w int) {
					defer inner.Done()
					for i := 0; i < 50; i++ {
						txn := eng.Begin()
						txn.Add("R", fmt.Sprintf("e%d-a%d-%d", id, w, i), fmt.Sprintf("e%d-b%d-%d", id, w, i))
						if _, err := txn.Commit(); err != nil {
							t.Error(err)
							return
						}
						snap := eng.Snapshot()
						if _, _, err := eng.Evaluate(context.Background(), q, snap.DB()); err != nil {
							t.Error(err)
						}
						snap.Close()
					}
				}(w)
			}
			inner.Wait()
		}(id, eng)
	}
	wg.Wait()

	for id, eng := range engines {
		snap := eng.Snapshot()
		if r := snap.DB().Relation("R"); r.Size() != 100 {
			t.Fatalf("engine %d holds %d rows, want 100", id, r.Size())
		}
		snap.Close()
		if got := eng.Dict().Len(); got != 200 {
			t.Fatalf("engine %d dict holds %d strings, want 200", id, got)
		}
	}
	if _, ok := engines[1].Dict().Lookup("e0-a0-0"); ok {
		t.Fatal("engine 0's string leaked into engine 1's dictionary")
	}
	if _, ok := engines[0].Dict().Lookup("e1-a0-0"); ok {
		t.Fatal("engine 1's string leaked into engine 0's dictionary")
	}
	if got := ValueDict().Len(); got != defaultBefore {
		t.Fatalf("transactional ingest grew the process-wide dictionary by %d", got-defaultBefore)
	}
}

func TestCompactShrinksDict(t *testing.T) {
	eng := NewEngine()
	txn := eng.Begin()
	txn.Create("R", "A")
	txn.Add("R", "keep")
	for i := 0; i < 100; i++ {
		txn.Add("R", fmt.Sprintf("junk%d", i))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	oldSnap := eng.Snapshot() // pins the pre-compaction dictionary's epoch
	defer oldSnap.Close()

	txn = eng.Begin()
	for i := 0; i < 100; i++ {
		txn.Remove("R", fmt.Sprintf("junk%d", i))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, eng, "epoch_dict_len"); got != 101 {
		t.Fatalf("dict holds %d strings before compaction, want 101", got)
	}

	if _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, eng, "epoch_dict_len"); got != 1 {
		t.Fatalf("dict holds %d strings after compaction, want 1", got)
	}

	// The compacted live epoch answers queries with the surviving string.
	q := MustParse("Q(X) <- R(X).")
	snap := eng.Snapshot()
	defer snap.Close()
	out, _, err := eng.Evaluate(context.Background(), q, snap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("compacted R evaluates to %d rows, want 1", out.Size())
	}
	var got []string
	out.Each(func(tp Tuple) bool {
		got = tp.StringsIn(eng.Dict())
		return false
	})
	if len(got) != 1 || got[0] != "keep" {
		t.Fatalf("compacted row resolves to %v, want [keep]", got)
	}

	// The pinned pre-compaction snapshot still resolves its strings
	// through the old dictionary.
	oldR := oldSnap.DB().Relation("R")
	if oldR.Size() != 101 {
		t.Fatalf("pinned snapshot shrank to %d rows", oldR.Size())
	}
	sawJunk := false
	oldD := oldR.Dict()
	oldR.Each(func(tp Tuple) bool {
		if tp.StringsIn(oldD)[0] == "junk5" {
			sawJunk = true
		}
		return true
	})
	if !sawJunk {
		t.Fatal("pinned snapshot no longer resolves a pre-compaction string")
	}

	// Post-compaction ingest lands in the fresh dictionary.
	txn = eng.Begin()
	txn.Add("R", "later")
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, eng, "epoch_dict_len"); got != 2 {
		t.Fatalf("dict holds %d strings after post-compaction ingest, want 2", got)
	}
}

// TestUnpinnedEpochRetiresAtNextCommit: only the live epoch survives
// unpinned, so every commit reclaims the epoch it supersedes.
func TestUnpinnedEpochRetiresAtNextCommit(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 5; i++ {
		txn := eng.Begin()
		if i == 0 {
			txn.Create("R", "A")
		}
		txn.Add("R", fmt.Sprintf("v%d", i))
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		active, retired := metric(t, eng, "epoch_active"), metric(t, eng, "epoch_retired")
		if active != 1 || retired != int64(i+1) {
			t.Fatalf("after commit %d: %d epochs active, %d retired; want 1, %d", i+1, active, retired, i+1)
		}
	}
	if got := eng.LiveEpoch(); got != 6 {
		t.Fatalf("live epoch %d, want 6", got)
	}
}
