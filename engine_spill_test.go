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

// spillTestWorkload builds a workload big enough that a small budget forces
// eviction: a two-join path over 300-edge relations, which the Engine runs
// as Yannakakis, whose reductions and forced subtree results are governed.
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
	// A second evaluation parks and reloads transients of its own.
	before := metric(t, budgeted, "spill_reloaded_shards")
	if _, _, err := budgeted.Evaluate(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if metric(t, budgeted, "spill_reloaded_shards") <= before {
		t.Fatal("re-evaluation never reloaded a parked transient")
	}
}

// TestEvaluateLeavesGovernorAtBaseline pins the governor's lifecycle: what
// an evaluation registers — Yannakakis reductions, forced subtree results,
// a hash projection's exchange chunks — is discarded by the time Evaluate
// or EvaluateTraced returns, so the registered buffers, resident bytes and
// bytes on disk are back at what they were before it, whatever the plan.
func TestEvaluateLeavesGovernorAtBaseline(t *testing.T) {
	_, db := spillTestWorkload()
	// W's values lie far apart, so projecting it onto (A, B) deduplicates
	// by hash, exchanging the four row ranges onto A in sealed chunks.
	const n = 8000
	cols := [][]relation.Value{make([]relation.Value, n), make([]relation.Value, n), make([]relation.Value, n)}
	for i := range cols[0] {
		cols[0][i], cols[1][i], cols[2][i] = relation.Value(i%3000*1000), relation.Value(i%7*1000), relation.Value(i)
	}
	db.MustAdd(relation.NewFromColumns("W", []string{"a", "b", "c"}, cols))
	eng := NewEngine(WithSharding(0, 4), WithMemoryBudget(512), WithSpillDir(t.TempDir()))
	defer eng.Close()
	gauges := []string{"spill_registered_buffers", "spill_resident_bytes", "spill_bytes_on_disk"}
	baseline := make(map[string]int64)
	for _, name := range gauges {
		baseline[name] = metric(t, eng, name)
	}
	ctx := context.Background()
	for _, text := range []string{
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
		"Q(A,C) <- R(A,B), S(B,C).",
		"Q(X,Y,Z) <- R(X,Y), S(Y,Z), T(X,Z).",
		"Q(X) <- R(X,Y), S(Y,Z), T(X,Z).",
		"Q(A,B) <- W(A,B,C).",
	} {
		q := MustParse(text)
		for _, traced := range []bool{false, true} {
			var err error
			if traced {
				_, _, _, err = eng.EvaluateTraced(ctx, q, db)
			} else {
				_, _, err = eng.Evaluate(ctx, q, db)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range gauges {
				if v := metric(t, eng, name); v != baseline[name] {
					t.Fatalf("%s (traced %v): %s = %d once it returned, %d before", text, traced, name, v, baseline[name])
				}
			}
		}
	}
	if metric(t, eng, "spill_evictions") == 0 || metric(t, eng, "shard_exchanged_rows") == 0 {
		t.Fatal("the 512-byte budget never evicted, or no projection exchanged: the baseline check proved less than it says")
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
	// The evaluation spilled into the engine's private directory, and its
	// spill file went with its last segment when the evaluation returned.
	if metric(t, eng, "spill_evictions") == 0 {
		t.Fatal("the 1 KiB budget never evicted")
	}
	if dirs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*")); len(dirs) != 1 {
		t.Fatalf("%d spill directories before Close, want the engine's one", len(dirs))
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*", "*.seg")); len(segs) != 0 {
		t.Fatalf("spill files outlived the evaluation: %v", segs)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "cqspill-*")); len(left) != 0 {
		t.Fatalf("Close left spill state behind: %v", left)
	}
	// The database must remain fully usable after Close.
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
	// Gauges describe state, not a window, and must survive.
	if metric(t, eng, "spill_peak_resident_bytes") == 0 {
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
// buffers, resident bytes, disk — instead of accumulating every query's
// intermediates forever.
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
