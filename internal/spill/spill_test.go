package spill

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cqbound/internal/metrics/counter"
)

// stats is a governor's registry entries, by name.
type stats struct {
	SpilledShards, ReloadedShards, BytesOnDisk, Evictions, EvictFailures, PinWaits, SpilledBytes,
	ResidentBytes, PeakResidentBytes, RegisteredBuffers, ReservedBytes, PeakReservedBytes int64
}

func snapshot(g *Governor) stats {
	r := registrar{}
	g.Register(r)
	v := func(name string) int64 { return r["spill_"+name]() }
	return stats{v("spilled_shards"), v("reloaded_shards"), v("bytes_on_disk"), v("evictions"), v("evict_failures"), v("pin_waits"),
		v("spilled_bytes"), v("resident_bytes"), v("peak_resident_bytes"), v("registered_buffers"),
		v("reserved_bytes"), v("peak_reserved_bytes")}
}

// registrar keeps the read func of every counter and gauge registered
// with it, by registry name.
type registrar map[string]func() int64

func (r registrar) Counters(s *counter.Set) {
	for _, c := range s.Cells() {
		r[s.Family().Name()+"_"+c.Name] = c.V.Load
	}
}

func (r registrar) Gauge(name, _ string, fn func() int64) { r[name] = fn }

// cols builds a deterministic arity×rows column set.
func cols(arity, rows, salt int) [][]uint32 {
	out := make([][]uint32, arity)
	for c := range out {
		col := make([]uint32, rows)
		for i := range col {
			col[i] = uint32(salt + c*rows + i)
		}
		out[c] = col
	}
	return out
}

func equalCols(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}

func TestNilGovernorIsInert(t *testing.T) {
	want := cols(2, 10, 7)
	b := Manage[uint32](nil, cols(2, 10, 7), 10)
	if !b.Resident() {
		t.Fatal("inert buffer not resident")
	}
	if !equalCols(b.Cols(), want) {
		t.Fatal("inert buffer lost data")
	}
	got := b.Pin()
	b.Unpin()
	if !equalCols(got, want) {
		t.Fatal("inert Pin lost data")
	}
	var g *Governor
	if s := snapshot(g); s != (stats{}) {
		t.Fatalf("nil governor snapshot = %+v, want zeros", s)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestEvictReloadRoundtrip(t *testing.T) {
	g := NewGovernor(100, t.TempDir()) // 100 bytes: one 2×10 buffer is 80
	defer g.Close()
	want := cols(2, 10, 3)
	b := Manage(g, cols(2, 10, 3), 10)
	if !b.Resident() {
		t.Fatal("under-budget buffer should stay resident")
	}
	// A second registration pushes residency to 160 > 100: the first (cold)
	// buffer must be parked.
	b2 := Manage(g, cols(2, 10, 900), 10)
	if b.Resident() {
		t.Fatal("cold buffer not evicted over budget")
	}
	if !b2.Resident() {
		t.Fatal("hot buffer evicted instead of cold one")
	}
	st := snapshot(g)
	if st.Evictions != 1 || st.SpilledShards != 1 || st.BytesOnDisk != 80 {
		t.Fatalf("after evict: %+v", st)
	}
	if !equalCols(b.Cols(), want) {
		t.Fatal("reloaded columns differ")
	}
	st = snapshot(g)
	if st.ReloadedShards != 1 || st.SpilledShards != 1 || st.PinWaits != 1 {
		// Reloading b (80 bytes) pushed residency to 160 again, so b2 was
		// parked in turn: SpilledShards stays 1.
		t.Fatalf("after reload: %+v", st)
	}
	if st.BytesOnDisk != 160 {
		t.Fatalf("segments should persist after reload: %+v", st)
	}
	if st.PeakResidentBytes != 160 {
		t.Fatalf("peak = %d, want 160", st.PeakResidentBytes)
	}
}

// TestFailedEvictionIsCounted: when the segment write fails, the buffer
// stays resident and readable, over budget, and the failure is counted in
// spill_evict_failures instead of spill_evictions.
func TestFailedEvictionIsCounted(t *testing.T) {
	g := NewGovernor(100, t.TempDir()) // 100 bytes: one 2×10 buffer is 80
	defer g.Close()
	a := Manage(g, cols(2, 10, 3), 10)
	b := Manage(g, cols(2, 10, 900), 10) // parks a, creating the spill file
	if a.Resident() {
		t.Fatal("cold buffer not evicted over budget")
	}
	// Swap the spill file for a read-only handle on it: a's segment still
	// reads, and every further segment write fails.
	ro, err := os.Open(g.seg.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	g.seg.f.Close()
	g.seg.f = ro
	before := snapshot(g)
	c := Manage(g, cols(2, 10, 5), 10) // 160 bytes resident: b and c are tried
	st := snapshot(g)
	if got := st.EvictFailures - before.EvictFailures; got != 2 {
		t.Fatalf("evict_failures moved by %d, want 2 (b and c)", got)
	}
	if st.Evictions != before.Evictions || st.BytesOnDisk != before.BytesOnDisk {
		t.Fatalf("a failed write counted as an eviction: %+v -> %+v", before, st)
	}
	if !b.Resident() || !c.Resident() || st.ResidentBytes != 160 {
		t.Fatalf("failed evictions must leave both buffers resident, over budget: %+v", st)
	}
	if !equalCols(b.Cols(), cols(2, 10, 900)) || !equalCols(c.Cols(), cols(2, 10, 5)) {
		t.Fatal("a buffer whose eviction failed reads wrong columns")
	}
	if !equalCols(a.Cols(), cols(2, 10, 3)) {
		t.Fatal("the segment written before the failure reads wrong columns")
	}
}

func TestPinBlocksEviction(t *testing.T) {
	g := NewGovernor(100, t.TempDir())
	defer g.Close()
	b := Manage(g, cols(2, 10, 1), 10)
	got := b.Pin()
	Manage(g, cols(2, 10, 2), 10) // would evict b if it were unpinned
	if !b.Resident() {
		t.Fatal("pinned buffer was evicted")
	}
	if !equalCols(got, cols(2, 10, 1)) {
		t.Fatal("pinned columns changed")
	}
	b.Unpin()
	// Next enforcement pass (triggered by another registration) can now
	// park b.
	Manage(g, cols(2, 10, 3), 10)
	if b.Resident() {
		t.Fatal("unpinned cold buffer survived enforcement")
	}
	if st := snapshot(g); st.ResidentBytes > 160 {
		t.Fatalf("resident %d bytes, want <= 160", st.ResidentBytes)
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	g := NewGovernor(0, t.TempDir())
	defer g.Close()
	bufs := make([]*Buffer[uint32], 8)
	for i := range bufs {
		bufs[i] = Manage(g, cols(3, 100, i), 100)
	}
	for i, b := range bufs {
		if !b.Resident() {
			t.Fatalf("buffer %d evicted under unlimited budget", i)
		}
	}
	st := snapshot(g)
	if st.Evictions != 0 || st.BytesOnDisk != 0 {
		t.Fatalf("unlimited budget spilled: %+v", st)
	}
	if st.ResidentBytes != 8*3*100*4 {
		t.Fatalf("resident = %d", st.ResidentBytes)
	}
}

func TestLRUOrderEvictsColdestFirst(t *testing.T) {
	g := NewGovernor(250, t.TempDir()) // three 80-byte buffers fit (240)
	defer g.Close()
	a := Manage(g, cols(2, 10, 1), 10)
	b := Manage(g, cols(2, 10, 2), 10)
	c := Manage(g, cols(2, 10, 3), 10)
	a.Pin() // touch a: b becomes coldest
	a.Unpin()
	Manage(g, cols(2, 10, 4), 10) // 320 > 250: evict coldest (b)
	if !a.Resident() || !c.Resident() {
		t.Fatal("recently used buffers evicted before the coldest")
	}
	if b.Resident() {
		t.Fatal("coldest buffer survived")
	}
}

func TestReleaseRestoresAndDeletesSegment(t *testing.T) {
	dir := t.TempDir()
	g := NewGovernor(50, dir)
	defer g.Close()
	want := cols(2, 10, 5)
	b := Manage(g, cols(2, 10, 5), 10) // 80 > 50: parked immediately
	if b.Resident() {
		t.Fatal("over-budget buffer not parked")
	}
	b.Release()
	if !b.Resident() || !equalCols(b.Cols(), want) {
		t.Fatal("released buffer lost its columns")
	}
	st := snapshot(g)
	if st.BytesOnDisk != 0 || st.ResidentBytes != 0 || st.SpilledShards != 0 {
		t.Fatalf("release left accounting behind: %+v", st)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*", "*.seg"))
	if len(segs) != 0 {
		t.Fatalf("segment files survive release: %v", segs)
	}
	b.Release() // idempotent
}

// TestDiscardedSlotsAreReused pins the spill file's slot reuse: a buffer
// parked after another was discarded takes the freed slot, so the file
// does not grow with the number of evictions, and the file goes with its
// last segment.
func TestDiscardedSlotsAreReused(t *testing.T) {
	dir := t.TempDir()
	g := NewGovernor(50, dir) // every 80-byte buffer is parked at once
	defer g.Close()
	spillFiles := func() []string {
		segs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*", "*.seg"))
		return segs
	}
	fileSize := func() int64 {
		segs := spillFiles()
		if len(segs) != 1 {
			t.Fatalf("want one spill file, have %v", segs)
		}
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	keep := Manage(g, cols(2, 10, 1), 10)
	var size int64
	for i := 0; i < 50; i++ {
		b := Manage(g, cols(2, 10, 100*(i+2)), 10)
		if b.Resident() {
			t.Fatal("over-budget buffer not parked")
		}
		if i == 0 {
			size = fileSize()
		}
		b.Discard()
	}
	if got := fileSize(); got != size {
		t.Fatalf("spill file grew from %d to %d bytes over 50 evictions of same-sized buffers", size, got)
	}
	if st := snapshot(g); st.Evictions != 51 || st.BytesOnDisk != 80 {
		t.Fatalf("after discards: %+v", st)
	}
	if !equalCols(keep.Cols(), cols(2, 10, 1)) {
		t.Fatal("segment overwritten by a reused slot")
	}
	keep.Release()
	if segs := spillFiles(); len(segs) != 0 {
		t.Fatalf("spill file survives its last segment: %v", segs)
	}
}

func TestCloseRestoresBuffersAndRemovesDir(t *testing.T) {
	dir := t.TempDir()
	g := NewGovernor(50, dir)
	want := cols(2, 20, 9)
	b := Manage(g, cols(2, 20, 9), 20)
	if b.Resident() {
		t.Fatal("expected parked buffer")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !b.Resident() || !equalCols(b.Cols(), want) {
		t.Fatal("Close lost buffer data")
	}
	dirs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*"))
	if len(dirs) != 0 {
		t.Fatalf("spill dir survives Close: %v", dirs)
	}
}

func TestStaleSpillFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// A crashed process left garbage behind, including a stale segment
	// whose name a fresh governor could plausibly generate.
	stale := filepath.Join(dir, "cqspill-deadbeef")
	if err := os.MkdirAll(stale, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "seg-1.seg"), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	g := NewGovernor(50, dir)
	defer g.Close()
	want := cols(2, 10, 11)
	b := Manage(g, cols(2, 10, 11), 10) // parked into a fresh private dir
	if !equalCols(b.Cols(), want) {
		t.Fatal("fresh governor read a stale segment")
	}
	if raw, err := os.ReadFile(filepath.Join(stale, "seg-1.seg")); err != nil || string(raw) != "garbage" {
		t.Fatal("governor touched a stale directory it does not own")
	}
}

func TestResetCountersKeepsGauges(t *testing.T) {
	g := NewGovernor(100, t.TempDir())
	defer g.Close()
	b := Manage(g, cols(2, 10, 1), 10)
	Manage(g, cols(2, 10, 2), 10) // evicts b
	b.Cols()                      // reload
	before := snapshot(g)
	g.counts.Reset()
	st := snapshot(g)
	if st.Evictions != 0 || st.ReloadedShards != 0 || st.PinWaits != 0 || st.SpilledBytes != 0 {
		t.Fatalf("counters survive reset: %+v", st)
	}
	if st.BytesOnDisk != before.BytesOnDisk || st.ResidentBytes != before.ResidentBytes ||
		st.PeakResidentBytes != before.PeakResidentBytes || st.BytesOnDisk == 0 {
		t.Fatalf("gauges changed on reset: %+v, before %+v", st, before)
	}
}

// TestConcurrentPinEvictReload hammers one governor from many goroutines:
// every reader must always see its buffer's own values regardless of how
// often enforcement parks and reloads. Run under -race in CI.
func TestConcurrentPinEvictReload(t *testing.T) {
	g := NewGovernor(400, t.TempDir()) // room for ~5 of 12 buffers
	defer g.Close()
	const bufs, rows = 12, 10
	bs := make([]*Buffer[uint32], bufs)
	for i := range bs {
		bs[i] = Manage(g, cols(2, rows, i*1000), rows)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				b := bs[(w+it)%bufs]
				got := b.Pin()
				if got[0][0] != uint32(((w+it)%bufs)*1000) {
					t.Errorf("worker %d: wrong data after reload", w)
					b.Unpin()
					return
				}
				b.Unpin()
			}
		}(w)
	}
	wg.Wait()
	if st := snapshot(g); st.Evictions == 0 || st.ReloadedShards == 0 {
		t.Fatalf("stress run never spilled: %+v", st)
	}
}

// TestGovernorUsableAfterClose pins the Close contract: a governor that
// outlives a Close keeps enforcing its budget, spilling into a fresh
// private directory instead of silently failing writes into the removed
// one.
func TestGovernorUsableAfterClose(t *testing.T) {
	dir := t.TempDir()
	g := NewGovernor(100, dir)
	Manage(g, cols(2, 10, 1), 10)
	Manage(g, cols(2, 10, 2), 10) // force a first spill
	if snapshot(g).Evictions == 0 {
		t.Fatal("setup never spilled")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	b := Manage(g, cols(2, 10, 3), 10)
	b2 := Manage(g, cols(2, 10, 4), 10) // over budget again post-Close
	if b.Resident() && b2.Resident() {
		t.Fatal("post-Close governor stopped enforcing its budget")
	}
	want := cols(2, 10, 3)
	if !equalCols(b.Cols(), want) {
		t.Fatal("post-Close spill lost data")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if dirs, _ := filepath.Glob(filepath.Join(dir, "cqspill-*")); len(dirs) != 0 {
		t.Fatalf("second Close left directories: %v", dirs)
	}
}

// TestReservationAccounting covers the admission-reservation gauges: Reserve
// raises ReservedBytes and its peak, Unreserve returns the slice, the peak
// survives release and a registry reset, and a nil
// governor is inert for all three calls.
func TestReservationAccounting(t *testing.T) {
	g := NewGovernor(1<<20, t.TempDir())
	defer g.Close()
	g.Reserve(1000)
	g.Reserve(500)
	if got := g.ReservedBytes(); got != 1500 {
		t.Fatalf("ReservedBytes = %d, want 1500", got)
	}
	g.Unreserve(1000)
	st := snapshot(g)
	if st.ReservedBytes != 500 || st.PeakReservedBytes != 1500 {
		t.Fatalf("after release: reserved=%d peak=%d, want 500/1500", st.ReservedBytes, st.PeakReservedBytes)
	}
	g.counts.Reset()
	if st = snapshot(g); st.PeakReservedBytes != 1500 {
		t.Fatalf("peak after a registry reset = %d, want 1500", st.PeakReservedBytes)
	}
	g.Unreserve(500)
	if got := g.ReservedBytes(); got != 0 {
		t.Fatalf("ReservedBytes after full release = %d, want 0", got)
	}

	var nilGov *Governor
	nilGov.Reserve(10)
	nilGov.Unreserve(10)
	if nilGov.ReservedBytes() != 0 {
		t.Fatal("nil governor should report zero reservations")
	}
}

// TestReservationConcurrent hammers Reserve/Unreserve from many goroutines;
// run under -race this is the data-race check, and the final gauge must
// return to zero with a peak at least one reservation high.
func TestReservationConcurrent(t *testing.T) {
	g := NewGovernor(0, t.TempDir())
	defer g.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Reserve(64)
				g.Unreserve(64)
			}
		}()
	}
	wg.Wait()
	st := snapshot(g)
	if st.ReservedBytes != 0 {
		t.Fatalf("ReservedBytes = %d after balanced traffic, want 0", st.ReservedBytes)
	}
	if st.PeakReservedBytes < 64 {
		t.Fatalf("PeakReservedBytes = %d, want >= 64", st.PeakReservedBytes)
	}
}
