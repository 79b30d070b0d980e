// The txn and http cells of the property sweep: a pair's database arrives
// as an initial commit plus delta commits from a concurrent writer, while
// readers — live and pinned, alternating traced and untraced — evaluate
// the pair's query against the moving epoch stream. Every reply must equal
// Naive on the rows committed at the epoch it reports, and once the writer
// is done the live epoch must hold the original database. One scenario
// runs against an Engine called in process (txn) or a Server over HTTP
// (http), behind loadTransport. Run with -race this is the concurrency
// check on commit, pin, evaluate and release.
package eval_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	cqbound "cqbound"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// loadWriterBatches is how many delta commits race the readers.
const loadWriterBatches = 3

// commitOp is one op of a commit, in the shape POST /commit takes.
type commitOp struct {
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

// reply is one read's answer at the string boundary, one sorted string
// per tuple, the epoch it read and, when traced, its span count.
type reply struct {
	epoch  uint64
	tuples []string
	traced bool
	spans  int
}

// loadTransport is the path a scenario drives.
type loadTransport interface {
	// commit applies ops in one transaction and returns its epoch.
	commit(ops []commitOp) (uint64, error)
	// pin holds the live epoch until release.
	pin() (uint64, error)
	release(epoch uint64) error
	// read evaluates q at a pinned epoch, or at the live one for 0.
	read(q *cq.Query, epoch uint64, traced bool) (reply, error)
}

// loadDisagreement runs the scenario for one pair on a fresh Engine at the
// cell's shard count and budget, through the cell's load path, and
// describes the first violation ("" when every reply held).
func (r *propertyRig) loadDisagreement(c propertyCell, seed int64, q *cq.Query, db *database.Database) string {
	eng := cqbound.NewEngine(cqbound.WithSharding(0, c.shards),
		cqbound.WithMemoryBudget(int64(c.budget)), cqbound.WithSpillDir(r.dir))
	defer eng.Close()
	var tp loadTransport = &engineLoad{eng: eng, pins: map[uint64][]*cqbound.Snapshot{}}
	if c.load == loadHTTP {
		h := newHTTPLoad(eng)
		defer h.close()
		tp = h
	}
	return loadScenario(tp, seed, q, db)
}

// loadScenario commits db through tp — batch 0 creates the relations and
// loads some rows, a concurrent writer commits the other batches — while
// four readers run.
func loadScenario(tp loadTransport, seed int64, q *cq.Query, db *database.Database) string {
	// The split is drawn from the pair's seed before any goroutine starts,
	// so the scenario replays under the shrinker.
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]commitOp, 1+loadWriterBatches)
	for _, name := range db.Names() {
		r := db.Relation(name)
		batches[0] = append(batches[0], commitOp{Op: "create", Rel: name, Attrs: r.Attrs})
		ops := make([]commitOp, len(batches))
		r.Each(func(t relation.Tuple) bool {
			b := max(0, rng.Intn(2*loadWriterBatches)-loadWriterBatches+1)
			ops[b].Rows = append(ops[b].Rows, t.Strings())
			return true
		})
		for b, op := range ops {
			if len(op.Rows) > 0 {
				batches[b] = append(batches[b], commitOp{Op: "append", Rel: name, Rows: op.Rows})
			}
		}
	}
	last, err := tp.commit(batches[0])
	if err != nil {
		return fmt.Sprintf("initial commit: %v", err)
	}

	// committed maps every epoch the writer published to the ops applied
	// by then; the replies are checked against it once every goroutine is
	// done.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed = map[uint64][]commitOp{last: batches[0]}
		replies   []reply
		errs      []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		have := batches[0]
		for _, batch := range batches[1:] {
			if len(batch) == 0 {
				continue
			}
			epoch, err := tp.commit(batch)
			if err != nil {
				fail("delta commit: %v", err)
				return
			}
			have = append(have[:len(have):len(have)], batch...)
			mu.Lock()
			committed[epoch], last = have, epoch
			mu.Unlock()
		}
	}()
	// Readers 1 and 3 pin an epoch first; each reader alternates traced
	// and untraced, so every combination occurs.
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				traced := (reader+round)%2 == 0
				var pinned uint64
				if reader%2 == 1 {
					var err error
					if pinned, err = tp.pin(); err != nil {
						fail("pin: %v", err)
						return
					}
				}
				rep, err := tp.read(q, pinned, traced)
				if err != nil {
					fail("reader %d: read (epoch %d): %v", reader, pinned, err)
					return
				}
				if pinned != 0 {
					if rep.epoch != pinned {
						fail("reader %d: read of pinned epoch %d reports epoch %d", reader, pinned, rep.epoch)
						return
					}
					if err := tp.release(pinned); err != nil {
						fail("release %d: %v", pinned, err)
						return
					}
				}
				rep.traced = traced
				mu.Lock()
				replies = append(replies, rep)
				mu.Unlock()
			}
		}(reader)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	for _, rep := range replies {
		ops, ok := committed[rep.epoch]
		if !ok {
			return fmt.Sprintf("a reply reports epoch %d, which no commit published", rep.epoch)
		}
		if msg := naiveDiff(q, opsDB(db, ops), rep.tuples); msg != "" {
			return fmt.Sprintf("epoch %d (traced=%v): %s on its rows", rep.epoch, rep.traced, msg)
		}
		if rep.traced && rep.spans < 2 {
			return fmt.Sprintf("epoch %d: traced read produced %d spans, want a tree", rep.epoch, rep.spans)
		}
	}

	// End state: the live epoch is the writer's last, and q and every
	// relation read there as on the original database.
	ends := []*cq.Query{q}
	for _, name := range db.Names() {
		ends = append(ends, wholeRelation(name, db.Relation(name).Arity()))
	}
	for _, eq := range ends {
		rep, err := tp.read(eq, 0, false)
		if err != nil {
			return fmt.Sprintf("end state %s: %v", eq, err)
		}
		if rep.epoch != last {
			return fmt.Sprintf("end state: live epoch %d, the last commit published %d", rep.epoch, last)
		}
		if msg := naiveDiff(eq, db, rep.tuples); msg != "" {
			return fmt.Sprintf("end state %s: %s on the original", eq, msg)
		}
	}
	return ""
}

// wholeRelation is the query that answers every tuple of relation name.
func wholeRelation(name string, arity int) *cq.Query {
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i)
	}
	v := strings.Join(vars, ",")
	return cq.MustParse(fmt.Sprintf("Q(%s) <- %s(%s).", v, name, v))
}

// opsDB builds the database of schema's relations holding the rows ops
// append, in the process-wide dictionary (the engine interns privately).
func opsDB(schema *database.Database, ops []commitOp) *database.Database {
	db := database.New()
	for _, name := range schema.Names() {
		db.MustAdd(relation.New(name, schema.Relation(name).Attrs...))
	}
	for _, op := range ops {
		for _, row := range op.Rows {
			db.Relation(op.Rel).Add(row...)
		}
	}
	return db
}

// naiveDiff describes how tuples, as a reply holds them, differ from
// Naive's answer to q on db ("" when they are equal).
func naiveDiff(q *cq.Query, db *database.Database, tuples []string) string {
	ref, _, err := eval.NaiveCtx(context.Background(), q, db)
	if err != nil {
		return fmt.Sprintf("naive: %v", err)
	}
	if want := tupleKeys(ref, ref.Dict()); !slices.Equal(tuples, want) {
		return fmt.Sprintf("%d tuples, naive %d", len(tuples), len(want))
	}
	return ""
}

// tupleKeys is r's tuples resolved through d, one sorted string each.
func tupleKeys(r *relation.Relation, d *relation.Dict) []string {
	var out []string
	r.Each(func(tp relation.Tuple) bool {
		out = append(out, strings.Join(tp.StringsIn(d), "\x00"))
		return true
	})
	slices.Sort(out)
	return out
}

// engineLoad drives an Engine in process.
type engineLoad struct {
	eng  *cqbound.Engine
	mu   sync.Mutex
	pins map[uint64][]*cqbound.Snapshot
}

func (l *engineLoad) commit(ops []commitOp) (uint64, error) {
	tx := l.eng.Begin()
	defer tx.Abort() // no-op after Commit
	for _, op := range ops {
		if op.Op == "create" {
			if err := tx.Create(op.Rel, op.Attrs...); err != nil {
				return 0, err
			}
		}
		for _, row := range op.Rows {
			if err := tx.Add(op.Rel, row...); err != nil {
				return 0, err
			}
		}
	}
	return tx.Commit()
}

func (l *engineLoad) pin() (uint64, error) {
	snap := l.eng.Snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pins[snap.Epoch()] = append(l.pins[snap.Epoch()], snap)
	return snap.Epoch(), nil
}

// release closes the epoch's latest snapshot: reads use its first, which
// outlives every pin but the last to be released.
func (l *engineLoad) release(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ps := l.pins[epoch]
	if len(ps) == 0 {
		return fmt.Errorf("epoch %d is not pinned", epoch)
	}
	ps[len(ps)-1].Close()
	l.pins[epoch] = ps[:len(ps)-1]
	return nil
}

func (l *engineLoad) read(q *cq.Query, epoch uint64, traced bool) (reply, error) {
	var snap *cqbound.Snapshot
	if epoch == 0 {
		snap = l.eng.Snapshot()
		defer snap.Close()
	} else {
		l.mu.Lock()
		ps := l.pins[epoch]
		l.mu.Unlock()
		if len(ps) == 0 {
			return reply{}, fmt.Errorf("epoch %d is not pinned", epoch)
		}
		snap = ps[0]
	}
	ctx := context.Background()
	var (
		out *cqbound.Relation
		tr  *cqbound.Trace
		err error
	)
	if traced {
		out, _, tr, err = l.eng.EvaluateTraced(ctx, q, snap.DB())
	} else {
		out, _, err = l.eng.Evaluate(ctx, q, snap.DB())
	}
	if err != nil {
		return reply{}, err
	}
	return reply{epoch: snap.Epoch(), tuples: tupleKeys(out, snap.DB().Dict()), spans: tr.SpanCount()}, nil
}

// httpLoad drives a Server over loopback HTTP.
type httpLoad struct {
	srv *cqbound.Server
	ts  *httptest.Server
}

func newHTTPLoad(eng *cqbound.Engine) *httpLoad {
	srv := cqbound.NewServer(eng)
	return &httpLoad{srv: srv, ts: httptest.NewServer(srv)}
}

func (l *httpLoad) close() {
	l.ts.Client().CloseIdleConnections()
	l.ts.Close()
	l.srv.Close()
}

// do sends one request and decodes its JSON reply into out.
func (l *httpLoad) do(method, path string, body, out any) error {
	var in io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		in = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, l.ts.URL+path, in)
	if err != nil {
		return err
	}
	resp, err := l.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (l *httpLoad) commit(ops []commitOp) (uint64, error) {
	var out struct{ Epoch uint64 }
	err := l.do(http.MethodPost, "/commit", map[string]any{"ops": ops}, &out)
	return out.Epoch, err
}

func (l *httpLoad) pin() (uint64, error) {
	var out struct{ Epoch uint64 }
	err := l.do(http.MethodPost, "/snapshot", nil, &out)
	return out.Epoch, err
}

func (l *httpLoad) release(epoch uint64) error {
	return l.do(http.MethodDelete, "/snapshot?epoch="+strconv.FormatUint(epoch, 10), nil, &struct{}{})
}

// traceSpans reads the span count off a rendered trace's summary line.
var traceSpans = regexp.MustCompile(`· (\d+) spans ·`)

func (l *httpLoad) read(q *cq.Query, epoch uint64, traced bool) (reply, error) {
	v := url.Values{"q": {q.String()}}
	if epoch != 0 {
		v.Set("epoch", strconv.FormatUint(epoch, 10))
	}
	if traced {
		v.Set("trace", "1")
	}
	var out struct {
		Epoch  uint64
		Tuples [][]string
		Trace  string
	}
	if err := l.do(http.MethodGet, "/query?"+v.Encode(), nil, &out); err != nil {
		return reply{}, err
	}
	rep := reply{epoch: out.Epoch}
	for _, tp := range out.Tuples {
		rep.tuples = append(rep.tuples, strings.Join(tp, "\x00"))
	}
	slices.Sort(rep.tuples)
	if m := traceSpans.FindStringSubmatch(out.Trace); m != nil {
		rep.spans, _ = strconv.Atoi(m[1])
	}
	return rep, nil
}
