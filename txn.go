package cqbound

// Transactional ingest with epoch-based snapshot isolation.
//
// Writers stage per-relation deltas in a Txn and publish the next epoch
// atomically at Commit; readers pin an epoch — explicitly with Snapshot,
// or implicitly for the duration of an Evaluate over an epoch database —
// and always see a frozen, consistent view. Commits are serialized (txMu),
// but never block readers: a commit extends rows — each appended relation
// becomes a frozen successor version (internal/relation.Extend) whose
// columns reuse the base's backing arrays — and each epoch builds its
// memos (indexes, statistics, value ranges) lazily on first read.
//
// When a commit supersedes an epoch and its last reader unpins, the
// retirement sweep drops it from the engine's lookup table, and what only
// it could reach becomes garbage. The engine caches nothing per epoch: a query's
// plan is one entry per query text, and the project-early atom order is
// re-derived per evaluation from the snapshot's memoized statistics.
// Dict compaction (Engine.Compact) is the analogous reclamation for the
// string table: it rewrites surviving IDs against a fresh dictionary and
// publishes the result as a new epoch.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cqbound/internal/database"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
)

// epochState tracks one published epoch: its immutable database snapshot,
// the reader pin count, and whether a later commit has superseded it
// (retired epochs are reclaimed once their pins drain).
// retired is guarded by Engine.epochMu; pins is atomic because unpinning
// must not take the lock on the hot path.
type epochState struct {
	epoch   uint64
	db      *database.Database
	pins    atomic.Int64
	retired bool
}

// Dict returns the engine's private dictionary: every value ingested
// through a transaction is interned here. Use it to pre-intern Values for
// Txn.Append/Retract, or to resolve values of an evaluation result over an
// epoch snapshot (Relation.String and Tuple.StringsIn do it for you).
func (e *Engine) Dict() *relation.Dict { return e.dict.Load() }

// Snapshot is a pinned reference to one epoch's database: the epoch's
// buffers outlive later commits until Close. The zero value is not
// meaningful; obtain one from Engine.Snapshot.
type Snapshot struct {
	e    *Engine
	st   *epochState
	once sync.Once
}

// DB returns the frozen database of the pinned epoch. It remains valid
// until Close; evaluating it after Close races the retirement sweep.
func (s *Snapshot) DB() *Database { return s.st.db }

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.st.epoch }

// Close releases the pin. Idempotent.
func (s *Snapshot) Close() {
	s.once.Do(func() {
		s.e.unpinEpoch(s.st)
	})
}

// Snapshot pins the live epoch and returns it: the reader-side anchor for
// evaluating several queries against one consistent state while writers
// keep committing. Always Close it.
func (e *Engine) Snapshot() *Snapshot {
	e.epochMu.Lock()
	st := e.live
	st.pins.Add(1)
	e.epochMu.Unlock()
	return &Snapshot{e: e, st: st}
}

// LiveEpoch returns the most recently committed epoch number.
func (e *Engine) LiveEpoch() uint64 {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	return e.live.epoch
}

// pinEpoch pins the epoch owning db for the duration of an evaluation.
// Free-standing databases (epoch 0) and snapshots of other engines pin
// nothing. The lookup and the increment share the lock with the sweep's
// pins check, so a pinned epoch is never reclaimed mid-evaluation.
func (e *Engine) pinEpoch(db *Database) *epochState {
	if db == nil || db.Epoch() == 0 {
		return nil
	}
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	st := e.byDB[db]
	if st != nil {
		st.pins.Add(1)
	}
	return st
}

// unpinEpoch releases a pin; draining the last pin triggers a sweep in
// case the epoch retired while the reader ran.
func (e *Engine) unpinEpoch(st *epochState) {
	if st.pins.Add(-1) == 0 {
		e.sweep()
	}
}

// Txn stages a batch of per-relation deltas: relation creations, tuple
// appends and tuple retractions. Nothing is visible to readers until
// Commit publishes the whole batch as the next epoch. A Txn is not safe
// for concurrent use; stage from one goroutine (multiple goroutines each
// own their own Txn — commits serialize in the engine).
type Txn struct {
	e       *Engine
	done    bool
	creates []txnCreate
	order   []string // touched relation names, first-touch order
	touched map[string]bool
	adds    map[string][]Tuple
	rets    map[string][]Tuple
}

type txnCreate struct {
	name  string
	attrs []string
}

// Begin starts a transaction. Begin itself is cheap and never blocks on
// other writers; contention happens at Commit.
func (e *Engine) Begin() *Txn {
	return &Txn{
		e:       e,
		touched: make(map[string]bool),
		adds:    make(map[string][]Tuple),
		rets:    make(map[string][]Tuple),
	}
}

func (t *Txn) touch(name string) {
	if !t.touched[name] {
		t.touched[name] = true
		t.order = append(t.order, name)
	}
}

// Create stages a new relation with the given attribute names. The
// relation exists (empty, plus any tuples staged for it in this Txn) once
// the transaction commits; committing fails if the name is already taken.
// A relation needs a name and at least one attribute: no query atom can
// name or read anything else.
func (t *Txn) Create(name string, attrs ...string) error {
	if t.done {
		return errTxnDone
	}
	if name == "" || len(attrs) == 0 {
		return fmt.Errorf("cqbound: relation %q needs a name and at least one attribute", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return fmt.Errorf("cqbound: duplicate attribute %q in %s", a, name)
		}
		seen[a] = true
	}
	for _, c := range t.creates {
		if c.name == name {
			return fmt.Errorf("cqbound: relation %s created twice in one transaction", name)
		}
	}
	t.creates = append(t.creates, txnCreate{name: name, attrs: append([]string(nil), attrs...)})
	t.touch(name)
	return nil
}

// Append stages tuples (already interned in the engine's dictionary — see
// Engine.Dict) for insertion into the named relation. Duplicates of rows
// already stored, and duplicates within the batch, are dropped at commit
// (set semantics).
func (t *Txn) Append(rel string, tuples ...Tuple) error {
	if t.done {
		return errTxnDone
	}
	for _, tp := range tuples {
		t.adds[rel] = append(t.adds[rel], tp.Clone())
	}
	t.touch(rel)
	return nil
}

// Add interns the strings in the engine's dictionary and stages them as
// one appended tuple — the string-boundary form of Append.
func (t *Txn) Add(rel string, vals ...string) error {
	if t.done {
		return errTxnDone
	}
	d := t.e.dict.Load()
	tp := make(Tuple, len(vals))
	for i, s := range vals {
		tp[i] = d.Intern(s)
	}
	t.adds[rel] = append(t.adds[rel], tp)
	t.touch(rel)
	return nil
}

// Retract stages tuples for removal from the named relation. Retraction
// applies to the state the commit builds on: a retracted tuple that is
// also staged by Append in the same transaction ends up present (retract,
// then append). Retracting an absent tuple is a no-op.
func (t *Txn) Retract(rel string, tuples ...Tuple) error {
	if t.done {
		return errTxnDone
	}
	for _, tp := range tuples {
		t.rets[rel] = append(t.rets[rel], tp.Clone())
	}
	t.touch(rel)
	return nil
}

// Remove is the string-boundary form of Retract. Strings that were never
// interned cannot name a stored tuple, so they make the retraction a
// guaranteed no-op rather than growing the dictionary.
func (t *Txn) Remove(rel string, vals ...string) error {
	if t.done {
		return errTxnDone
	}
	d := t.e.dict.Load()
	tp := make(Tuple, len(vals))
	for i, s := range vals {
		v, ok := d.Lookup(s)
		if !ok {
			return nil
		}
		tp[i] = v
	}
	t.rets[rel] = append(t.rets[rel], tp)
	t.touch(rel)
	return nil
}

// Abort discards the staged batch; the Txn is dead afterwards.
func (t *Txn) Abort() { t.done = true }

var errTxnDone = fmt.Errorf("cqbound: transaction already committed or aborted")

// Commit validates the staged batch against the live epoch and publishes
// it atomically as the next epoch, returning the new epoch number. The
// whole batch lands or none of it: validation (unknown relations,
// duplicate creations, arity mismatches) happens before any state
// changes. Readers holding an older epoch are untouched; the superseded
// epoch retires, and its unreachable buffers are reclaimed once unpinned. An empty (or fully deduplicated) batch
// publishes nothing and returns the current epoch.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, errTxnDone
	}
	t.done = true
	e := t.e
	e.txMu.Lock()
	defer e.txMu.Unlock()

	// live only changes under txMu, so this read is stable for the commit.
	e.epochMu.Lock()
	base := e.live.db
	nextEpoch := e.live.epoch + 1
	e.epochMu.Unlock()

	created := make(map[string][]string, len(t.creates))
	for _, c := range t.creates {
		if base.Relation(c.name) != nil {
			return 0, fmt.Errorf("cqbound: relation %s already exists", c.name)
		}
		created[c.name] = c.attrs
	}
	arities := make(map[string]int, len(t.order))
	for _, name := range t.order {
		if attrs, ok := created[name]; ok {
			arities[name] = len(attrs)
		} else if br := base.Relation(name); br != nil {
			arities[name] = br.Arity()
		} else {
			return 0, fmt.Errorf("cqbound: transaction touches unknown relation %s", name)
		}
		for _, tp := range t.adds[name] {
			if len(tp) != arities[name] {
				return 0, fmt.Errorf("cqbound: relation %s: appended tuple arity %d != %d", name, len(tp), arities[name])
			}
		}
		for _, tp := range t.rets[name] {
			if len(tp) != arities[name] {
				return 0, fmt.Errorf("cqbound: relation %s: retracted tuple arity %d != %d", name, len(tp), arities[name])
			}
		}
	}

	// Validation passed; from here every step is infallible.
	dict := e.dict.Load()
	replace := make(map[string]*relation.Relation, len(t.order))
	for _, name := range t.order {
		if attrs, ok := created[name]; ok {
			nr := relation.NewIn(name, dict, attrs...)
			m := relation.NewKeyTable(len(attrs), len(t.adds[name]))
			final, _ := nr.Extend(dedupAdds(m, t.adds[name]))
			replace[name] = final
			e.dedup[name] = m
			continue
		}
		br := base.Relation(name)
		m := e.dedup[name]
		if m == nil {
			m = br.RowTable()
		}
		drop := make(map[int32]bool)
		for _, tp := range t.rets[name] {
			if row := m.FindTuple(tp); row >= 0 {
				drop[row] = true
			}
		}
		if len(drop) > 0 {
			// Retraction path: rebuild the chain from the surviving rows.
			// O(n) by design — retractions are the rare operation — and the
			// fresh version starts a new Extend chain with fresh memos.
			keep := make([]int32, 0, br.Size()-len(drop))
			for i := 0; i < br.Size(); i++ {
				if !drop[int32(i)] {
					keep = append(keep, int32(i))
				}
			}
			nr := br.Gather(name, keep)
			m = nr.RowTable()
			final, _ := nr.Extend(dedupAdds(m, t.adds[name]))
			replace[name] = final
			e.dedup[name] = m
			e.epoch.Add(rebuiltRelations, 1)
			continue
		}
		newAdds := dedupAdds(m, t.adds[name])
		if len(newAdds) == 0 {
			e.dedup[name] = m
			continue // batch was a no-op for this relation
		}
		// Append path: the successor extends the base in place (old readers
		// are bounded by their own row counts); its memos build on first read.
		next, _ := br.Extend(newAdds)
		replace[name] = next
		e.dedup[name] = m
	}

	if len(replace) == 0 {
		return nextEpoch - 1, nil
	}
	e.publish(nextEpoch, base.Next(nextEpoch, replace))
	return nextEpoch, nil
}

// dedupAdds filters staged tuples against the writer's row table of the
// chain, inserting the accepted ones: a new key's id is the next row, which
// is the row Extend appends it at. Set semantics for the whole chain:
// duplicates of stored rows and duplicates within the batch both drop.
func dedupAdds(m *relation.KeyTable, adds []Tuple) []Tuple {
	out := make([]Tuple, 0, len(adds))
	for _, tp := range adds {
		if _, added := m.InsertTuple(tp); added {
			out = append(out, tp)
		}
	}
	return out
}

// publish installs db as the live epoch, retires every older one, and
// sweeps. Caller holds txMu.
func (e *Engine) publish(epoch uint64, db *database.Database) {
	st := &epochState{epoch: epoch, db: db}
	e.epochMu.Lock()
	e.epochs = append(e.epochs, st)
	e.live = st
	e.byDB[db] = st
	for i := 0; i < len(e.epochs)-1; i++ {
		e.epochs[i].retired = true
	}
	e.epochMu.Unlock()
	e.epoch.Add(commits, 1)
	e.sweep()
}

// sweep reclaims every retired epoch with no pinned readers: its database
// leaves the lookup table and the epoch counts as retired. No epoch holds
// a governed buffer — the governor only ever tracks an evaluation's
// transients, which its scope discards — so nothing else is freed here.
// Sweeps run at publish time and when a reader's last pin drains; both
// entry points are cheap when nothing retired.
func (e *Engine) sweep() {
	reclaim := func(st *epochState) bool { return st.retired && st.pins.Load() == 0 }
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	if !slices.ContainsFunc(e.epochs, reclaim) {
		return
	}
	e.epochs = slices.DeleteFunc(slices.Clone(e.epochs), func(st *epochState) bool {
		if !reclaim(st) {
			return false
		}
		delete(e.byDB, st.db)
		e.epoch.Add(retiredEpochs, 1)
		return true
	})
}

// Compact rewrites the live epoch against a fresh dictionary holding only
// the strings its relations still reference, publishing the result as a
// new epoch: the string-table counterpart of the epoch sweep, for
// long-lived servers whose ingest-and-retract traffic would otherwise
// grow the dictionary monotonically. Older epochs keep resolving through
// the previous dictionary, so pinned readers stay printable; the old
// table is garbage once they drain. Memoized structures are value-
// dependent and do not survive the ID rewrite — the relations republish
// with cold memos — so Compact is a maintenance operation for quiet
// moments, not a per-batch step.
func (e *Engine) Compact() (uint64, error) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	e.epochMu.Lock()
	base := e.live.db
	nextEpoch := e.live.epoch + 1
	e.epochMu.Unlock()

	old := e.dict.Load()
	used := make([]bool, old.Len())
	for _, name := range base.Names() {
		r := base.Relation(name)
		for c := 0; c < r.Arity(); c++ {
			for _, v := range r.Column(c) {
				if int(v) < len(used) {
					used[v] = true
				}
			}
		}
	}
	nd, remap := old.CompactInto(used)
	fresh := database.NewIn(nd)
	for _, name := range base.Names() {
		r := base.Relation(name)
		cols := make([][]relation.Value, r.Arity())
		for c := range cols {
			src := r.Column(c)
			col := make([]relation.Value, len(src))
			for i, v := range src {
				if int(v) < len(remap) {
					col[i] = remap[v]
				}
			}
			cols[c] = col
		}
		nr := relation.NewFromColumns(name, append([]string(nil), r.Attrs...), cols)
		nr.AdoptDict(nd)
		nr.Freeze()
		fresh.MustAdd(nr)
	}
	e.dict.Store(nd)
	// The writer's row tables key on IDs; the rewrite invalidated them.
	e.dedup = make(map[string]*relation.KeyTable)
	e.epoch.Add(compactions, 1)
	e.publish(nextEpoch, fresh.Next(nextEpoch, nil))
	return nextEpoch, nil
}

// epochCounters is the family of the epoch lifecycle's counters
// (registry names epoch_*).
var (
	epochCounters    = counter.NewFamily("epoch")
	commits          = epochCounters.Counter("commits", "published batches, Compact included")
	retiredEpochs    = epochCounters.Counter("retired", "epochs fully reclaimed by the retirement sweep")
	_                = epochCounters.Counter("swept_buffers", "governed buffers the retirement sweep discarded (no epoch holds one; always zero)")
	_                = epochCounters.Counter("swept_bytes", "bytes of the buffers the retirement sweep discarded (always zero)")
	_                = epochCounters.Counter("incremental_memos", "memos carried over from a base version (each epoch builds its memos on first read; always zero)")
	rebuiltRelations = epochCounters.Counter("rebuilt_relations", "retraction-path chain rebuilds")
	compactions      = epochCounters.Counter("compactions", "dictionary compactions")
)
