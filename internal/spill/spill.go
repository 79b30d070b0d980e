package spill

// The memory governor and the disk-backed column-buffer store; package
// documentation (the pin/unpin contract, the eviction policy, what is never
// spilled) lives in doc.go.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cqbound/internal/lru"
	"cqbound/internal/metrics/counter"
)

// spillCounters is the family of spill events (registry names spill_*). A
// Governor counts every event engine-wide and, for a buffer tracked by a
// Scope, once more in the scope's own Set: the per-evaluation attribution
// a trace reports.
var (
	spillCounters = counter.NewFamily("spill")
	evictions     = spillCounters.Counter("evictions",
		"buffers parked to disk, re-evictions of already-written segments included")
	evictFailures = spillCounters.Counter("evict_failures",
		"evictions abandoned because the segment write failed: the buffer stayed resident")
	reloads      = spillCounters.Counter("reloaded_shards", "parked buffers loaded back into memory")
	pinWaits     = spillCounters.Counter("pin_waits", "reads that found their buffer parked and waited for its segment to load")
	SpilledBytes = spillCounters.Counter("spilled_bytes", "bytes of the buffers parked to disk")
)

// Governor tracks the resident bytes of every registered buffer and, when a
// byte budget is exceeded, evicts the least recently used unpinned buffers
// to segments in a spill file in a private directory. A nil *Governor is
// inert: Manage returns an always-resident buffer, so callers thread one
// pointer instead of branching. A Governor is safe for concurrent use.
type Governor struct {
	budget int64 // <= 0 means unlimited (never evict)
	base   string

	// mu guards the recency cache, the id sequence, the lazily created
	// spill directory and the spill file's slot table. It is held across
	// file IO only to create or remove that directory or file, and never
	// while taking a buffer's lock: the lock order is buffer.mu before
	// Governor.mu.
	mu  sync.Mutex
	dir string   // "" until first spill; reset by Close
	seg *segFile // nil until first spill and whenever no slot is in use

	// res is the recency list of RESIDENT buffers only — eviction removes
	// an entry, reload re-inserts it — so an enforcement pass scans live
	// eviction candidates, not everything ever registered. all is the full
	// registry (resident and parked) that Close and Release maintain.
	res *lru.Cache[evictable]
	all map[string]evictable
	seq int

	counts       *counter.Set
	resident     atomic.Int64
	peak         atomic.Int64
	spilled      atomic.Int64
	onDisk       atomic.Int64
	reserved     atomic.Int64
	peakReserved atomic.Int64
}

// evictable is the governor's view of a buffer: enough to push it out of
// memory without knowing its element type.
type evictable interface {
	// tryEvict parks the buffer if it is resident and unpinned, returning
	// the bytes freed (0 when it was pinned, already parked, or the write
	// failed — eviction is best-effort, failures keep data resident).
	tryEvict() int64
}

// governorCapacity bounds the recency cache. Eviction is by bytes, not
// entry count, so the capacity only needs to exceed any plausible number
// of simultaneously registered shards.
const governorCapacity = 1 << 30

// NewGovernor returns a governor enforcing the given byte budget (<= 0
// means unlimited: buffers are tracked but never evicted). Spill files go
// into a fresh private directory under dir (os.TempDir() when dir is "");
// the directory name is unique per governor, so stale files left by a
// crashed process are never read — a fresh Engine simply ignores them.
func NewGovernor(budget int64, dir string) *Governor {
	if dir == "" {
		dir = os.TempDir()
	}
	return &Governor{
		budget: budget,
		base:   dir,
		counts: spillCounters.NewSet(),
		res:    lru.New[evictable](governorCapacity),
		all:    make(map[string]evictable),
	}
}

// Budget returns the configured byte budget (<= 0 means unlimited).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Registrar is the part of *metrics.Registry that Register uses: spill
// sits below the registry and does not link its HTTP handler.
type Registrar interface {
	Counters(s *counter.Set)
	Gauge(name, help string, fn func() int64)
}

// Register adds the governor's counters and gauges to r. A nil governor
// registers the same names, reading zero.
func (g *Governor) Register(r Registrar) {
	if g == nil {
		g = &Governor{counts: spillCounters.NewSet()}
	}
	r.Counters(g.counts)
	r.Gauge("spill_spilled_shards", "registered buffers parked on disk now", g.spilled.Load)
	r.Gauge("spill_bytes_on_disk", "bytes of live spill segments", g.onDisk.Load)
	r.Gauge("spill_resident_bytes", "column bytes of registered buffers in memory, pinned ones included", g.resident.Load)
	r.Gauge("spill_peak_resident_bytes", "high-water mark of spill_resident_bytes", g.peak.Load)
	r.Gauge("spill_registered_buffers", "buffers the governor tracks, resident or parked", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(len(g.all))
	})
	r.Gauge("spill_reserved_bytes", "budget committed to admitted work through Reserve", g.reserved.Load)
	r.Gauge("spill_peak_reserved_bytes", "high-water mark of spill_reserved_bytes", g.peakReserved.Load)
}

// Reserve records bytes of the budget as committed to one admitted unit of
// work — the scope-reservation half of a serving front-end's admission
// control. The governor does not gate anything on reservations (the budget
// stays a soft eviction target; a query is never wedged against its own
// reservation): the caller decides, from ReservedBytes vs Budget, whether
// to admit, queue, or reject the next query. Balance every Reserve with
// exactly one Unreserve of the same size. Nil-safe.
func (g *Governor) Reserve(bytes int64) {
	if g == nil || bytes <= 0 {
		return
	}
	now := g.reserved.Add(bytes)
	for {
		p := g.peakReserved.Load()
		if now <= p || g.peakReserved.CompareAndSwap(p, now) {
			return
		}
	}
}

// Unreserve returns a Reserve's bytes to the budget. Nil-safe.
func (g *Governor) Unreserve(bytes int64) {
	if g == nil || bytes <= 0 {
		return
	}
	if g.reserved.Add(-bytes) < 0 {
		panic("spill: Unreserve without matching Reserve")
	}
}

// ReservedBytes returns the budget currently committed via Reserve
// (nil-safe: 0).
func (g *Governor) ReservedBytes() int64 {
	if g == nil {
		return 0
	}
	return g.reserved.Load()
}

// EventCounts returns the cumulative eviction and reload counters with
// two atomic loads — cheap enough for executors to diff around individual
// plan stages when annotating trace spans (nil-safe).
func (g *Governor) EventCounts() (evicted, reloaded int64) {
	if g == nil {
		return 0, 0
	}
	return g.counts.Load(evictions), g.counts.Load(reloads)
}

// note counts n of event c engine-wide and against the buffer's scope.
func (g *Governor) note(s *Scope, c counter.ID, n int64) {
	g.counts.Add(c, n)
	if s != nil {
		s.counts.Add(c, n)
	}
}

// segFile is a governor's spill file. Segments live in slots of it —
// power-of-two sizes from minSlot up, each reused once freed — so parking
// a buffer is one positioned write and reloading it one positioned read:
// no file is created, renamed or deleted per eviction, and the file stops
// growing once the working set has been spilled once. Its fields are
// guarded by Governor.mu; the file itself is read and written concurrently
// at disjoint slots.
type segFile struct {
	f    *os.File
	end  int64             // bytes of the file handed out as slots so far
	free map[int64][]int64 // slot size → offsets of freed slots
	live int               // slots handed out and not yet freed
}

// minSlot is the smallest slot: one page, so that slots never share one.
const minSlot = 4 << 10

// slotSize is the slot a segment of the given bytes occupies.
func slotSize(bytes int64) int64 {
	s := int64(minSlot)
	for s < bytes {
		s <<= 1
	}
	return s
}

// slot hands out a slot for a segment of the given bytes, creating the
// private spill directory and the spill file on first use. Close resets
// both, so a governor that outlives a Close spills into a fresh directory
// instead of a removed path. A failed create is not cached: the next
// eviction retries.
func (g *Governor) slot(bytes int64) (s *segFile, off, size int64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dir == "" {
		dir, err := os.MkdirTemp(g.base, "cqspill-")
		if err != nil {
			return nil, 0, 0, err
		}
		g.dir = dir
	}
	if g.seg == nil {
		f, err := os.OpenFile(filepath.Join(g.dir, "segments.seg"), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return nil, 0, 0, err
		}
		g.seg = &segFile{f: f, free: make(map[int64][]int64)}
	}
	s, size = g.seg, slotSize(bytes)
	if free := s.free[size]; len(free) > 0 {
		off, s.free[size] = free[len(free)-1], free[:len(free)-1]
	} else {
		off, s.end = s.end, s.end+size
	}
	s.live++
	return s, off, size, nil
}

// freeSlot returns a slot to its file. The file is closed and removed
// with its last slot, so no spill file outlives the segments in it; the
// next eviction creates a fresh one.
func (g *Governor) freeSlot(s *segFile, off, size int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s.free[size] = append(s.free[size], off)
	s.live--
	if s.live > 0 {
		return
	}
	s.f.Close()
	os.Remove(s.f.Name())
	if g.seg == s {
		g.seg = nil
	}
}

// Close discards every registered buffer — reloading parked ones so their
// relations stay readable as plain resident storage — and removes the spill
// directory. The governor remains usable (a later Manage re-creates a
// directory), but Close is meant as the end-of-life hook: Engine.Close
// calls it.
func (g *Governor) Close() error {
	if g == nil {
		return nil
	}
	// Snapshot the full registry (resident and parked buffers) and retire
	// the directory and its file in the same critical section: an eviction
	// racing Close either targets a snapshotted buffer (detached below, its
	// segment read back from the old file before removal) or spills into a
	// fresh directory.
	g.mu.Lock()
	bufs := make([]evictable, 0, len(g.all))
	for _, b := range g.all {
		bufs = append(bufs, b)
	}
	dir := g.dir
	g.dir, g.seg = "", nil // a later spill re-creates a fresh directory
	g.mu.Unlock()
	var firstErr error
	for _, b := range bufs {
		if d, ok := b.(interface{ detach() error }); ok {
			if err := d.detach(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// register tracks a new buffer and enforces the budget.
func (g *Governor) register(id string, b evictable, bytes int64) {
	g.mu.Lock()
	g.res.Put(id, b)
	g.all[id] = b
	g.mu.Unlock()
	g.addResident(bytes)
	g.enforce()
}

// addResident accounts bytes coming into memory, maintaining the peak.
func (g *Governor) addResident(bytes int64) {
	now := g.resident.Add(bytes)
	for {
		p := g.peak.Load()
		if now <= p || g.peak.CompareAndSwap(p, now) {
			return
		}
	}
}

// touch marks a resident buffer recently used, re-inserting it into the
// recency list when a reload brought it back from disk.
func (g *Governor) touch(id string, b evictable) {
	g.mu.Lock()
	if _, ok := g.res.Get(id); !ok {
		g.res.Put(id, b)
	}
	g.mu.Unlock()
}

// parked drops an evicted buffer from the recency list: parked buffers are
// not eviction candidates until a reload re-inserts them.
func (g *Governor) parked(id string) {
	g.mu.Lock()
	g.res.Remove(id)
	g.mu.Unlock()
}

// forget drops a discarded buffer entirely.
func (g *Governor) forget(id string) {
	g.mu.Lock()
	g.res.Remove(id)
	delete(g.all, id)
	g.mu.Unlock()
}

// nextID allocates a buffer id (also the spill file's base name).
func (g *Governor) nextID() string {
	g.mu.Lock()
	g.seq++
	id := fmt.Sprintf("seg-%d", g.seq)
	g.mu.Unlock()
	return id
}

// enforce evicts cold unpinned buffers, oldest first, until residency is
// within budget or nothing more can move. It never blocks on pinned
// buffers — the budget is a target, not a hard cap.
//
// Candidates are collected in small chunks from the cold end of the
// recency list (lru.Backward), not as one full-registry scan: a governor
// sitting at its budget — the normal regime of a forced-spill run — pays
// O(evictions) per pass, not O(registered shards). Eviction itself runs
// outside Governor.mu (tryEvict takes the buffer's lock and does file
// IO), so chunks may overlap with concurrent touches; tryEvict re-checks
// pins and residency per buffer.
func (g *Governor) enforce() {
	if g == nil || g.budget <= 0 || g.resident.Load() <= g.budget {
		return
	}
	const chunk = 8
	tried := make(map[evictable]bool)
	for g.resident.Load() > g.budget {
		var cands []evictable
		g.mu.Lock()
		g.res.Backward(func(_ string, b evictable) bool {
			if !tried[b] {
				cands = append(cands, b)
			}
			return len(cands) < chunk
		})
		g.mu.Unlock()
		if len(cands) == 0 {
			break // every resident buffer already tried (all pinned)
		}
		for _, b := range cands {
			tried[b] = true
			if g.resident.Load() <= g.budget {
				return
			}
			b.tryEvict()
		}
	}
}

// Buffer is one spillable unit — the columns of one shard — either resident
// as [][]V arrays or parked as a fixed-width little-endian segment in a
// slot of the governor's spill file.
// The arrays are immutable once managed: eviction drops the buffer's
// reference and reload reads a fresh copy, so a reader that fetched the
// arrays before an eviction keeps a valid snapshot (the happens-before edge
// is the atomic data pointer). V is constrained to uint32-width values so
// the segment format is the storage format.
type Buffer[V ~uint32] struct {
	// gov is the owning governor, nil after detach/Discard. An atomic
	// pointer because readers (Pin/load) check it without the buffer
	// lock while Release/Discard — e.g. Engine.Close racing an in-flight
	// evaluation — clear it.
	gov   atomic.Pointer[Governor]
	id    string
	rows  int
	bytes int64

	data atomic.Pointer[[][]V]
	pins atomic.Int64

	// scope, when set by Scope.Track, receives this buffer's spill events
	// (evictions, reloads, pin waits) in addition to the governor's
	// engine-wide counters — the per-evaluation attribution the trace
	// layer reads.
	scope atomic.Pointer[Scope]

	// mu serializes park/load transitions and file IO. Lock order:
	// Buffer.mu before Governor.mu.
	mu    sync.Mutex
	seg   *segFile // the file holding the segment; nil while none is written
	off   int64    // where the segment's slot starts in seg
	slot  int64    // the slot's size
	arity int
}

// Manage registers cols (rows valid rows per column) with the governor and
// returns the buffer now owning them. The caller must treat the arrays as
// immutable from this point on. A nil governor returns an inert buffer that
// is always resident and never files anything.
func Manage[V ~uint32](g *Governor, cols [][]V, rows int) *Buffer[V] {
	// Trim capacity slack out of the accounting and the arrays themselves:
	// the buffer's contract is "rows × arity × 4 bytes".
	for c := range cols {
		cols[c] = cols[c][:rows:rows]
	}
	b := &Buffer[V]{rows: rows, arity: len(cols), bytes: int64(rows) * int64(len(cols)) * 4}
	b.data.Store(&cols)
	if g != nil {
		b.gov.Store(g)
		b.id = g.nextID()
		g.register(b.id, b, b.bytes)
	}
	return b
}

// Bytes returns the column bytes this buffer accounts for.
func (b *Buffer[V]) Bytes() int64 { return b.bytes }

// attachScope points the buffer's spill events at a scope's counters;
// Scope.Track calls it through an interface assertion.
func (b *Buffer[V]) attachScope(s *Scope) { b.scope.Store(s) }

// Resident reports whether the columns are currently in memory.
func (b *Buffer[V]) Resident() bool { return b.data.Load() != nil }

// Cols returns the resident columns, loading the segment back first when
// the buffer is parked. The returned arrays are an immutable snapshot: they
// stay valid (and correct) even if the buffer is evicted afterwards.
func (b *Buffer[V]) Cols() [][]V {
	if p := b.data.Load(); p != nil {
		return *p
	}
	return b.load()
}

// Pin returns the resident columns and holds them resident — the buffer
// cannot be evicted — until the matching Unpin. Pins nest.
func (b *Buffer[V]) Pin() [][]V {
	b.pins.Add(1)
	if p := b.data.Load(); p != nil {
		if g := b.gov.Load(); g != nil {
			g.touch(b.id, b)
		}
		return *p
	}
	return b.load()
}

// Unpin releases a Pin.
func (b *Buffer[V]) Unpin() {
	if b.pins.Add(-1) < 0 {
		panic("spill: Unpin without matching Pin")
	}
}

// load reads the segment back into memory (or returns the columns loaded
// by a concurrent caller), counting the reload and the wait.
func (b *Buffer[V]) load() [][]V {
	g := b.gov.Load()
	if g == nil {
		// Release/detach restores residency before clearing the governor,
		// so a reader that raced it re-checks under the lock and finds
		// the data. Parked data with no governor only exists after
		// Discard, whose contract forbids further reads.
		b.mu.Lock()
		p := b.data.Load()
		b.mu.Unlock()
		if p != nil {
			return *p
		}
		panic("spill: read of a discarded parked buffer")
	}
	g.note(b.scope.Load(), pinWaits, 1)
	b.mu.Lock()
	cols := b.loadLocked(g)
	b.mu.Unlock()
	// Reloading may push the governor over budget; evict colder buffers.
	// Outside b.mu: enforcement takes other buffers' locks.
	g.enforce()
	return cols
}

// loadLocked is load's body; the caller holds b.mu and resolved the
// governor.
func (b *Buffer[V]) loadLocked(g *Governor) [][]V {
	if p := b.data.Load(); p != nil {
		return *p
	}
	raw := make([]byte, b.bytes)
	if n, err := b.seg.f.ReadAt(raw, b.off); err != nil {
		// A missing or truncated segment is unrecoverable storage loss;
		// every caller of Cols is a read of relation storage that cannot
		// fail. This cannot happen short of outside interference with the
		// governor's private directory.
		panic(fmt.Sprintf("spill: segment at %d of %s corrupt: read %d bytes of %d (err %v)", b.off, b.seg.f.Name(), n, b.bytes, err))
	}
	cols := make([][]V, b.arity)
	off := 0
	for c := range cols {
		col := make([]V, b.rows)
		for i := range col {
			col[i] = V(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
		}
		cols[c] = col
	}
	b.data.Store(&cols)
	g.spilled.Add(-1)
	g.note(b.scope.Load(), reloads, 1)
	g.addResident(b.bytes)
	g.touch(b.id, b)
	return cols
}

// tryEvict implements evictable: park the columns in the spill file and
// drop the in-memory arrays, unless the buffer is pinned, already parked,
// or busy. TryLock (rather than Lock) keeps enforcement deadlock-free: a
// buffer mid-load holds its own lock while enforcing, and two concurrent
// loads must not queue on evicting each other.
func (b *Buffer[V]) tryEvict() int64 {
	if !b.mu.TryLock() {
		return 0
	}
	defer b.mu.Unlock()
	g := b.gov.Load()
	if g == nil || b.pins.Load() > 0 {
		return 0
	}
	p := b.data.Load()
	if p == nil {
		return 0
	}
	if b.seg == nil {
		if err := b.write(*p, g); err != nil {
			// Keep the data resident, over budget if need be, and count it.
			g.note(b.scope.Load(), evictFailures, 1)
			return 0
		}
		g.onDisk.Add(b.bytes)
	}
	b.data.Store(nil)
	// Re-check pins after the nil store: Pin increments before it loads
	// the data pointer, so a racing Pin either saw nil (its slow path
	// waits on b.mu and reloads) or is visible here — in which case undo,
	// honoring Pin's cannot-be-evicted contract (the segment write stays
	// valid either way).
	if b.pins.Load() > 0 {
		b.data.Store(p)
		return 0
	}
	g.resident.Add(-b.bytes)
	g.spilled.Add(1)
	g.note(b.scope.Load(), evictions, 1)
	g.note(b.scope.Load(), SpilledBytes, b.bytes)
	// Leave the recency list: a parked buffer is no candidate until a
	// reload re-inserts it, keeping enforcement scans O(resident).
	g.parked(b.id)
	return b.bytes
}

// writeBlockBytes is the scratch-buffer size of segment writes: eviction
// happens exactly when memory is tight, so serialization must not
// allocate the shard's own footprint a second time.
const writeBlockBytes = 64 << 10

// write serializes the columns into a slot of the governor's spill file:
// each column in order, each value a fixed-width little-endian uint32,
// streamed through a block buffer of at most writeBlockBytes. The buffer
// records the slot only once the write succeeded, so a half-written
// segment is never read.
func (b *Buffer[V]) write(cols [][]V, g *Governor) error {
	s, off, size, err := g.slot(b.bytes)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, min(writeBlockBytes, b.bytes))
	pos := off
	flush := func() error {
		_, err := s.f.WriteAt(buf, pos)
		pos += int64(len(buf))
		buf = buf[:0]
		return err
	}
	for _, col := range cols {
		for _, v := range col[:b.rows] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			if len(buf) == cap(buf) {
				if err := flush(); err != nil {
					g.freeSlot(s, off, size)
					return err
				}
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			g.freeSlot(s, off, size)
			return err
		}
	}
	b.seg, b.off, b.slot = s, off, size
	return nil
}

// Release detaches the buffer from its governor: the columns are made
// resident (reloading if parked), the segment's slot is freed, and the
// governor stops tracking the buffer. Called when a managed relation is
// about to be mutated — the storage contract reverts to plain slices.
func (b *Buffer[V]) Release() {
	_ = b.detach()
}

// Discard drops the buffer's spill state WITHOUT restoring residency: the
// segment's slot is freed, the governor's accounting and registry forget
// the buffer, and parked contents are simply gone. Only for buffers whose
// relation is garbage — one evaluation's intermediates after the
// evaluation returned (Scope batches these). Resident columns stay
// readable by stragglers; a parked discarded buffer must never be read
// again. Idempotent, and a no-op after Release.
func (b *Buffer[V]) Discard() {
	b.mu.Lock()
	g := b.gov.Load()
	if g == nil {
		b.mu.Unlock()
		return
	}
	resident := b.data.Load() != nil
	if b.seg != nil {
		g.onDisk.Add(-b.bytes)
		g.freeSlot(b.seg, b.off, b.slot)
		b.seg = nil
	}
	b.gov.Store(nil)
	b.mu.Unlock()
	if resident {
		g.resident.Add(-b.bytes)
	} else {
		g.spilled.Add(-1)
	}
	g.forget(b.id)
}

// Scope batches the transient buffers of one evaluation — intermediates
// that are garbage once the evaluation returns — for bulk Discard, so a
// long-lived engine's governor does not accumulate resident bytes,
// registry entries, and spilled segments per query. Track is safe for
// concurrent use (operators govern outputs from pool workers); Close is
// called once, after the last read of the tracked relations.
type Scope struct {
	mu   sync.Mutex
	bufs []interface{ Discard() }

	// counts is governor activity on the buffers tracked here, i.e.
	// exactly this evaluation's transient intermediates: what the engine's
	// trace layer reports as the query's spill traffic, free of
	// contamination from concurrent evaluations (whose transients live in
	// their own scopes).
	counts *counter.Set
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{counts: spillCounters.NewSet()} }

// Track registers a buffer for discard at Close (nil-safe on both sides).
// Buffers that support it are also attached to the scope's event counters
// (a buffer re-tracked by a later scope reports to the latest one).
func (s *Scope) Track(b interface{ Discard() }) {
	if s == nil || b == nil {
		return
	}
	if a, ok := b.(interface{ attachScope(*Scope) }); ok {
		a.attachScope(s)
	}
	s.mu.Lock()
	s.bufs = append(s.bufs, b)
	s.mu.Unlock()
}

// Counters returns the scope's spill-event counters; a nil scope returns
// an empty set. Valid after Close too: Close discards buffers but keeps
// the history.
func (s *Scope) Counters() *counter.Set {
	if s == nil {
		return spillCounters.NewSet()
	}
	return s.counts
}

// Close discards every tracked buffer.
func (s *Scope) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	bufs := s.bufs
	s.bufs = nil
	s.mu.Unlock()
	for _, b := range bufs {
		b.Discard()
	}
}

// detach is Release's body, named for Governor.Close.
func (b *Buffer[V]) detach() error {
	b.mu.Lock()
	g := b.gov.Load()
	if g == nil {
		b.mu.Unlock()
		return nil
	}
	if b.data.Load() == nil {
		b.loadLocked(g) // restore residency so the owner keeps readable storage
	}
	if b.seg != nil {
		g.onDisk.Add(-b.bytes)
		g.freeSlot(b.seg, b.off, b.slot)
		b.seg = nil
	}
	b.gov.Store(nil)
	b.mu.Unlock()
	g.resident.Add(-b.bytes)
	g.forget(b.id)
	return nil
}
