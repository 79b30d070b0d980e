package cqbound

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
	if metric(t, budgeted, "spill_evictions") == 0 || metric(t, budgeted, "spill_reloaded_shards") == 0 {
		t.Fatal("1KB budget never spilled")
	}
	if metric(t, budgeted, "spill_peak_resident_bytes") == 0 {
		t.Fatal("peak resident gauge missing")
	}
	// A second evaluation re-reads memoized (now parked) partitions.
	before := metric(t, budgeted, "spill_reloaded_shards")
	if _, _, err := budgeted.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if metric(t, budgeted, "spill_reloaded_shards") <= before {
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
	if metric(t, eng, "spill_evictions") == 0 {
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
	if metric(t, eng, "cache_hits")+metric(t, eng, "cache_misses") == 0 {
		t.Fatal("no cache traffic before reset")
	}
	if metric(t, eng, "shard_sharded_ops") == 0 {
		t.Fatal("no sharded ops before reset")
	}
	eng.ResetStats()
	for _, name := range []string{"cache_hits", "cache_misses", "shard_sharded_ops", "shard_fallback_ops",
		"spill_evictions", "spill_reloaded_shards", "spill_pin_waits"} {
		if v := metric(t, eng, name); v != 0 {
			t.Fatalf("%s = %d survives reset", name, v)
		}
	}
	// Gauges describe present state and must survive.
	if metric(t, eng, "spill_bytes_on_disk") == 0 && metric(t, eng, "spill_resident_bytes") == 0 {
		t.Fatal("spill gauges were zeroed by reset")
	}
	// Counters accumulate again after the reset — the per-query window.
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if metric(t, eng, "cache_hits")+metric(t, eng, "cache_misses") == 0 {
		t.Fatal("no cache traffic after reset")
	}
}

// TestEngineResetStatsNoSpillNoSharding pins nil-safety: ResetStats and
// the spill entries on a plain engine are no-ops reading zero, not panics.
func TestEngineResetStatsNoSpillNoSharding(t *testing.T) {
	eng := NewEngine()
	eng.ResetStats()
	for name, v := range eng.MetricsSnapshot() {
		if n, ok := v.(int64); ok && strings.HasPrefix(name, "spill_") && n != 0 {
			t.Fatalf("plain engine reports %s = %d", name, n)
		}
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
	after1 := eng.MetricsSnapshot()
	for i := 0; i < 5; i++ {
		if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
			t.Fatal(err)
		}
	}
	after6 := eng.MetricsSnapshot()
	for _, name := range []string{"spill_registered_buffers", "spill_resident_bytes", "spill_bytes_on_disk"} {
		if a1, a6 := after1[name].(int64), after6[name].(int64); a6 > a1 {
			t.Fatalf("%s grows per query: %d after 1 eval, %d after 6", name, a1, a6)
		}
	}
}
