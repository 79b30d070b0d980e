package cqbound

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cqbound/internal/datagen"
	"cqbound/internal/relation"
)

// spillTestQuery and spillTestDB build a workload big enough that a small
// budget forces eviction: a two-join path over 300-edge relations.
func spillTestWorkload() (*Query, *Database) {
	q := MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	db := datagen.EdgeDB(rand.New(rand.NewSource(9)), []string{"R", "S", "T"}, 300, 50)
	return q, db
}

func TestEngineMemoryBudgetSpillsAndAgrees(t *testing.T) {
	q, db := spillTestWorkload()
	plain := NewEngine()
	budgeted := NewEngine(WithSharding(0, 8), WithMemoryBudget(1024), WithSpillDir(t.TempDir()))
	defer budgeted.Close()
	ctx := context.Background()
	want, _, err := plain.Evaluate(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := budgeted.Evaluate(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(want, got) {
		t.Fatalf("budgeted output %d tuples, plain %d", got.Size(), want.Size())
	}
	st := budgeted.SpillStats()
	if st.Evictions == 0 || st.ReloadedShards == 0 {
		t.Fatalf("1KB budget never spilled: %+v", st)
	}
	if st.PeakResidentBytes == 0 {
		t.Fatalf("peak resident gauge missing: %+v", st)
	}
	// A second evaluation re-reads memoized (now parked) partitions.
	before := budgeted.SpillStats().ReloadedShards
	if _, _, err := budgeted.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if budgeted.SpillStats().ReloadedShards <= before {
		t.Fatal("re-evaluation never reloaded a parked shard")
	}
}

// TestEngineIgnoresStaleSpillFiles is the crash-safety check: a fresh
// Engine pointed at a spill directory holding another process's leftovers
// must neither read nor disturb them — its own files live in a fresh
// uniquely-named subdirectory.
func TestEngineIgnoresStaleSpillFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "cqspill-stale")
	if err := os.MkdirAll(stale, 0o700); err != nil {
		t.Fatal(err)
	}
	// Garbage with plausible segment names, as a crashed run would leave.
	for _, name := range []string{"seg-1.seg", "seg-2.seg"} {
		if err := os.WriteFile(filepath.Join(stale, name), []byte("not a segment"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	q, db := spillTestWorkload()
	plain := NewEngine()
	eng := NewEngine(WithSharding(0, 8), WithMemoryBudget(1024), WithSpillDir(dir))
	defer eng.Close()
	ctx := context.Background()
	want, _, err := plain.Evaluate(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eng.Evaluate(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(want, got) {
		t.Fatalf("engine over a dirty spill dir: %d tuples, want %d", got.Size(), want.Size())
	}
	if eng.SpillStats().Evictions == 0 {
		t.Fatal("budget never forced a spill — the stale-file check proved nothing")
	}
	for _, name := range []string{"seg-1.seg", "seg-2.seg"} {
		raw, err := os.ReadFile(filepath.Join(stale, name))
		if err != nil || string(raw) != "not a segment" {
			t.Fatalf("stale file %s was touched (err %v)", name, err)
		}
	}
}

func TestEngineCloseRemovesSpillFilesKeepsData(t *testing.T) {
	dir := t.TempDir()
	q, db := spillTestWorkload()
	eng := NewEngine(WithSharding(0, 8), WithMemoryBudget(1024), WithSpillDir(dir))
	want, _, err := eng.Evaluate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*", "*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments on disk before Close")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "cqspill-*")); len(left) != 0 {
		t.Fatalf("Close left spill state behind: %v", left)
	}
	// The database (and its memoized, formerly-governed partitions) must
	// remain fully usable after Close.
	got, _, err := NewEngine().Evaluate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(want, got) {
		t.Fatal("data unusable after Close")
	}
}

func TestEngineResetStats(t *testing.T) {
	q, db := spillTestWorkload()
	eng := NewEngine(WithSharding(0, 4), WithMemoryBudget(1024), WithSpillDir(t.TempDir()))
	defer eng.Close()
	ctx := context.Background()
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if h, m := eng.CacheStats(); h+m == 0 {
		t.Fatal("no cache traffic before reset")
	}
	if eng.ShardStats().ShardedOps == 0 {
		t.Fatal("no sharded ops before reset")
	}
	eng.ResetStats()
	if h, m := eng.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("cache stats survive reset: %d/%d", h, m)
	}
	if st := eng.ShardStats(); st != (ShardStats{}) {
		t.Fatalf("shard stats survive reset: %+v", st)
	}
	sp := eng.SpillStats()
	if sp.Evictions != 0 || sp.ReloadedShards != 0 || sp.PinWaits != 0 {
		t.Fatalf("spill counters survive reset: %+v", sp)
	}
	// Gauges describe present state and must survive.
	if sp.BytesOnDisk == 0 && sp.ResidentBytes == 0 {
		t.Fatalf("spill gauges were zeroed by reset: %+v", sp)
	}
	// Counters accumulate again after the reset — the per-query window.
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if h, m := eng.CacheStats(); h == 0 && m == 0 {
		t.Fatal("no cache traffic after reset")
	}
}

// TestEngineResetStatsNoSpillNoSharding pins nil-safety: ResetStats and
// SpillStats on a plain engine are no-ops, not panics.
func TestEngineResetStatsNoSpillNoSharding(t *testing.T) {
	eng := NewEngine()
	eng.ResetStats()
	if st := eng.SpillStats(); st != (SpillStats{}) {
		t.Fatalf("plain engine reports spill stats: %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("plain Close: %v", err)
	}
}

// TestEngineSpillScopeReleasesIntermediates pins the per-evaluation
// lifecycle: a long-lived engine's governor must plateau — registered
// buffers, resident bytes, disk — at the memoized base partitions instead
// of accumulating every query's intermediate shards forever.
func TestEngineSpillScopeReleasesIntermediates(t *testing.T) {
	q, db := spillTestWorkload()
	eng := NewEngine(WithSharding(0, 8), WithMemoryBudget(1<<20), WithSpillDir(t.TempDir()))
	defer eng.Close()
	ctx := context.Background()
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	after1 := eng.SpillStats()
	for i := 0; i < 5; i++ {
		if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
			t.Fatal(err)
		}
	}
	after6 := eng.SpillStats()
	if after6.RegisteredBuffers > after1.RegisteredBuffers {
		t.Fatalf("governor accumulates buffers per query: %d after 1 eval, %d after 6",
			after1.RegisteredBuffers, after6.RegisteredBuffers)
	}
	if after6.ResidentBytes > after1.ResidentBytes {
		t.Fatalf("resident bytes grow per query: %d -> %d", after1.ResidentBytes, after6.ResidentBytes)
	}
	if after6.BytesOnDisk > after1.BytesOnDisk {
		t.Fatalf("segment files accumulate per query: %d -> %d bytes", after1.BytesOnDisk, after6.BytesOnDisk)
	}
}
