package main

// The serve-mix workload: cqload's dataset and request mix as a seeded
// sequence, replayed closed-loop by C clients (callers that each wait for
// their reply) over C loopback keep-alive connections against an
// in-process cqbound.NewServer with cqload's defaults.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqbound"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
	"cqbound/internal/plan"
	"cqbound/internal/serve"
)

// serveKind is one request kind of the mix with its weight out of 100.
type serveKind struct {
	name   string
	weight int
	query  string // empty for the ingest commit
}

var serveKinds = []serveKind{
	{"point", 40, "Q(X,Y) <- K(X), E(X,Y)."},
	{"star3", 15, "Q(X,A,B,C) <- E(X,A), F(X,B), G(X,C)."},
	{"path3", 15, "Q(A,D) <- E(A,B), F(B,C), G(C,D)."},
	{"triangle", 10, "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X)."},
	{"zipf", 10, "Q(X,Z) <- Z1(X,Y), Z2(Y,Z)."},
	{"ingest", 10, ""},
}

const (
	kindPath3  = 2
	kindIngest = 5
	// ingestRows is the rows one ingest request appends to E: edges from
	// fresh nodes into the existing graph, so only path3's answer moves.
	ingestRows = 4
	// blockSize is the requests of one operation: a block holds every kind
	// in exactly the mix's proportions (weights are multiples of 5), in
	// seeded order, so that operations are alike and their median means
	// something — single requests span three orders of magnitude.
	blockSize = 20
	// cqload's server defaults.
	serveGovernor  = 64 << 20
	serveAdmission = 8 << 20
	serveQueue     = 16
	serveCache     = 256
)

// request is one entry of the pre-generated sequence.
type request struct {
	kind    uint8
	targets [ingestRows]int32 // ingest only: the existing endpoints
}

// commitRecord is one ingest the server published: which epoch it became
// and what it adds to path3's answer.
type commitRecord struct {
	epoch   uint64
	addRows int
	addHash uint64
}

// outcome is one measured request, verified after the run.
type outcome struct {
	idx     int
	kind    uint8
	status  int
	cached  bool
	epoch   uint64
	sig     resultSig
	ms      float64
	scanErr error
}

type commitOp struct {
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

type serveInstance struct {
	cfg      config
	eng      *cqbound.Engine
	srv      *cqbound.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
	universe int

	seq  []request
	next atomic.Int64 // next block of the sequence, across run segments

	queries [kindIngest]*cqbound.Query
	refs    [kindIngest]resultSig // answers at the loaded epoch
	oracle  [kindIngest]float64
	eRows   int
	// reach2[u] lists the hashes of the nodes two hops (F then G) from u:
	// what one ingested edge into u adds to path3.
	reach2 [][]uint64

	mu      sync.Mutex
	commits []commitRecord
}

func setupServeMix(ctx context.Context, cfg config) (instance, error) {
	edges, universe := cfg.scale(2000, 8, 64), cfg.scale(200, 4, 16)
	sv := &serveInstance{cfg: cfg, universe: universe, served: make(chan error, 1)}

	// Data: three plain edge relations, two Zipf-skewed ones, eight keys.
	data := map[string][]edge{}
	for i, name := range []string{"E", "F", "G"} {
		data[name] = uniformEdges(streamRNG(cfg.Seed, 41+int64(i)), edges, universe)
	}
	for i, name := range []string{"Z1", "Z2"} {
		data[name] = zipfEdges(streamRNG(cfg.Seed, 44+int64(i)), edges, universe, 1.5)
	}
	keyRNG := streamRNG(cfg.Seed, 46)
	keys := cqbound.NewRelation("K", "k")
	var keyRows [][]string
	for i := 0; i < 8; i++ {
		k := node(keyRNG.Intn(universe))
		keys.Add(k)
		keyRows = append(keyRows, []string{k})
	}

	// References, by a different path: NaiveCtx over a free-standing copy.
	refDB := dbOf(keys)
	for _, name := range []string{"E", "F", "G", "Z1", "Z2"} {
		refDB.MustAdd(edgeRelation(name, data[name]))
	}
	sv.eRows = refDB.Relation("E").Size()
	hasher := newSigHasher(cqbound.ValueDict())
	for k := 0; k < kindIngest; k++ {
		sv.queries[k] = cqbound.MustParse(serveKinds[k].query)
		out, _, err := eval.NaiveCtx(ctx, sv.queries[k], refDB)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", serveKinds[k].name, err)
		}
		sv.refs[k] = hasher.sig(out)
		if sv.oracle[k], err = oracleRows(sv.queries[k], refDB); err != nil {
			return nil, err
		}
	}
	sv.reach2 = twoHopHashes(data["F"], data["G"], universe)

	// The request sequence: block after block of the mix, each shuffled,
	// ingest targets drawn here.
	seqRNG := streamRNG(cfg.Seed, 47)
	sv.seq = make([]request, 4096*blockSize)
	for b := 0; b < len(sv.seq); b += blockSize {
		block := sv.seq[b : b+blockSize]
		i := 0
		for k, sk := range serveKinds {
			for n := 0; n < sk.weight*blockSize/100; n++ {
				block[i].kind = uint8(k)
				i++
			}
		}
		seqRNG.Shuffle(blockSize, func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			if block[i].kind == kindIngest {
				for j := range block[i].targets {
					block[i].targets[j] = int32(seqRNG.Intn(universe))
				}
			}
		}
	}

	// The server, in-process on a loopback port, with cqload's defaults.
	opts, err := engineOptions(cfg, serveGovernor)
	if err != nil {
		return nil, err
	}
	sv.eng = cqbound.NewEngine(opts...)
	sv.srv = cqbound.NewServer(sv.eng, cqbound.WithAdmissionBudget(serveAdmission),
		cqbound.WithAdmissionQueue(serveQueue), cqbound.WithResultCache(serveCache))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.eng.Close()
		return nil, err
	}
	sv.hs = &http.Server{Handler: sv.srv}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	sv.base = "http://" + ln.Addr().String()
	sv.client = &http.Client{Transport: &http.Transport{MaxIdleConns: cfg.Cores, MaxIdleConnsPerHost: cfg.Cores}}

	// Load through POST /commit, as a client would.
	var ops []commitOp
	for _, name := range []string{"E", "F", "G", "Z1", "Z2"} {
		rows := make([][]string, len(data[name]))
		for i, e := range data[name] {
			rows[i] = []string{e[0], e[1]}
		}
		ops = append(ops, commitOp{Op: "create", Rel: name, Attrs: []string{"a", "b"}}, commitOp{Op: "append", Rel: name, Rows: rows})
	}
	ops = append(ops, commitOp{Op: "create", Rel: "K", Attrs: []string{"k"}}, commitOp{Op: "append", Rel: "K", Rows: keyRows})
	if _, _, err := sv.commit(ops, sv.viaHTTP); err != nil {
		sv.close()
		return nil, fmt.Errorf("loading: %w", err)
	}
	// Warm-up: every read kind once, verified.
	warm := newResult()
	for k := 0; k < kindIngest; k++ {
		o := sv.read(uint8(k), -1, sv.viaHTTP)
		sv.verify(o, warm)
	}
	if warm.Failed > 0 {
		sv.close()
		return nil, fmt.Errorf("warm-up failed: %v", warm.fails)
	}
	return sv, nil
}

// twoHopHashes returns, per node u, the string hashes of the distinct
// nodes d with F(u,c) and G(c,d).
func twoHopHashes(f, g []edge, universe int) [][]uint64 {
	id := make(map[string]int, universe)
	for i := 0; i < universe; i++ {
		id[node(i)] = i
	}
	gOut := make([][]int, universe)
	for _, e := range g {
		gOut[id[e[0]]] = append(gOut[id[e[0]]], id[e[1]])
	}
	seen := make([]map[int]bool, universe)
	for _, e := range f {
		u := id[e[0]]
		if seen[u] == nil {
			seen[u] = make(map[int]bool)
		}
		for _, d := range gOut[id[e[1]]] {
			seen[u][d] = true
		}
	}
	out := make([][]uint64, universe)
	for u, ds := range seen {
		for d := range ds {
			out[u] = append(out[u], strHash([]byte(node(d))))
		}
	}
	return out
}

func (sv *serveInstance) info() map[string]any {
	return map[string]any{"B": serveGovernor, "admission_bytes": serveAdmission, "admission_queue": serveQueue,
		"result_cache": serveCache, "clients": sv.cfg.Cores,
		"op": "one block of 20 requests in the mix's proportions (point 8 / star3 3 / path3 3 / triangle 2 / zipf 2 / ingest 2), closed loop, C clients over loopback keep-alive; requests/s = 20 x ops/s"}
}

func (sv *serveInstance) close() error {
	sv.client.CloseIdleConnections()
	err := sv.hs.Close()
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.srv.Close()
	if cerr := sv.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// A transport carries one request to the server and returns the status
// and the whole body: over the loopback connection, or straight into the
// handler for the probes.
type transport func(req *http.Request) (int, []byte, error)

func (sv *serveInstance) viaHTTP(req *http.Request) (int, []byte, error) {
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (sv *serveInstance) viaHandler(req *http.Request) (int, []byte, error) {
	w := httptest.NewRecorder()
	sv.srv.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), nil
}

// commit posts a transaction and returns the epoch it published.
func (sv *serveInstance) commit(ops []commitOp, via transport) (uint64, float64, error) {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, sv.base+"/commit", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	status, resp, err := via(req)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, ms, err
	}
	if status != http.StatusOK {
		return 0, ms, fmt.Errorf("POST /commit: status %d: %s", status, resp)
	}
	var reply struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(resp, &reply); err != nil {
		return 0, ms, err
	}
	return reply.Epoch, ms, nil
}

// ingest sends request idx's commit and records what it adds to path3.
func (sv *serveInstance) ingest(idx int, via transport) outcome {
	r := sv.seq[idx%len(sv.seq)]
	rows := make([][]string, ingestRows)
	rec := commitRecord{}
	for j, u := range r.targets {
		fresh := "n" + strconv.Itoa(idx) + "_" + strconv.Itoa(j)
		rows[j] = []string{fresh, node(int(u))}
		fh := strHash([]byte(fresh))
		for _, dh := range sv.reach2[u] {
			rec.addRows++
			rec.addHash += finishTuple(foldCol(foldCol(tupleSeed, fh), dh))
		}
	}
	epoch, ms, err := sv.commit([]commitOp{{Op: "append", Rel: "E", Rows: rows}}, via)
	o := outcome{idx: idx, kind: kindIngest, status: http.StatusOK, epoch: epoch, ms: ms, scanErr: err}
	if err == nil {
		rec.epoch = epoch
		sv.mu.Lock()
		sv.commits = append(sv.commits, rec)
		sv.mu.Unlock()
	}
	return o
}

// read sends one query of the given kind.
func (sv *serveInstance) read(kind uint8, idx int, via transport) outcome {
	o := outcome{idx: idx, kind: kind}
	req, err := http.NewRequest(http.MethodGet, sv.base+"/query?"+url.Values{"q": {serveKinds[kind].query}}.Encode(), nil)
	if err != nil {
		o.scanErr = err
		return o
	}
	t0 := time.Now()
	status, body, err := via(req)
	o.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	o.status = status
	switch {
	case err != nil:
		o.scanErr = err
	case status == http.StatusOK:
		o.epoch, o.cached, o.sig, o.scanErr = scanQueryResponse(body)
	}
	return o
}

func (sv *serveInstance) do(idx int, via transport) outcome {
	if k := sv.seq[idx%len(sv.seq)].kind; k != kindIngest {
		return sv.read(k, idx, via)
	}
	return sv.ingest(idx, via)
}

// scanQueryResponse reads the fields the check needs out of a /query
// reply without decoding megabytes of JSON: the epoch, the cached flag,
// and the row count and order-independent hash of the tuples. Generated
// values never need escaping; a backslash is reported as an error.
func scanQueryResponse(body []byte) (epoch uint64, cached bool, sig resultSig, err error) {
	bad := func(what string) (uint64, bool, resultSig, error) {
		return 0, false, resultSig{}, fmt.Errorf("response scan: %s", what)
	}
	number := func(key string) (uint64, bool) {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return 0, false
		}
		i += len(key)
		j := i
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		n, err := strconv.ParseUint(string(body[i:j]), 10, 64)
		return n, err == nil
	}
	var ok bool
	if epoch, ok = number(`"epoch":`); !ok {
		return bad("no epoch")
	}
	rows, ok := number(`"rows":`)
	if !ok {
		return bad("no row count")
	}
	key := []byte(`"tuples":[`)
	i := bytes.Index(body, key)
	if i < 0 {
		return bad("no tuples")
	}
	i += len(key)
	for i < len(body) && body[i] == '[' {
		i++
		h := uint64(tupleSeed)
		for i < len(body) && body[i] == '"' {
			j := bytes.IndexByte(body[i+1:], '"')
			if j < 0 {
				return bad("unterminated string")
			}
			val := body[i+1 : i+1+j]
			if bytes.IndexByte(val, '\\') >= 0 {
				return bad("escaped value")
			}
			h = foldCol(h, strHash(val))
			i += j + 2
			if i < len(body) && body[i] == ',' {
				i++
			}
		}
		if i >= len(body) || body[i] != ']' {
			return bad("malformed tuple")
		}
		i++
		sig.Rows++
		sig.Hash += finishTuple(h)
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	if i >= len(body) || body[i] != ']' {
		return bad("malformed tuple list")
	}
	if uint64(sig.Rows) != rows {
		return bad(fmt.Sprintf("rows field says %d, %d tuples present", rows, sig.Rows))
	}
	cached = bytes.Contains(body, []byte(`"cached":true`))
	return epoch, cached, sig, nil
}

// verify checks one outcome. A read whose answer ingest cannot change
// must equal its reference exactly; path3 must equal the loaded answer
// plus what every commit up to the reply's epoch added.
func (sv *serveInstance) verify(o outcome, res *result) bool {
	name := serveKinds[o.kind].name
	switch {
	case o.scanErr != nil:
		res.fail("request %d (%s): %v", o.idx, name, o.scanErr)
	case o.status != http.StatusOK:
		res.fail("request %d (%s): status %d", o.idx, name, o.status)
	case o.kind == kindIngest:
		return true
	default:
		want, oracle := sv.refs[o.kind], sv.oracle[o.kind]
		if o.kind == kindPath3 {
			added := 0
			for _, c := range sv.commits {
				if c.epoch <= o.epoch {
					want.Rows += c.addRows
					want.Hash += c.addHash
					added += ingestRows
				}
			}
			oracle = math.Pow(float64(sv.eRows+added), 2)
		}
		switch {
		case o.sig != want:
			res.fail("request %d (%s, epoch %d): result %+v differs from reference %+v", o.idx, name, o.epoch, o.sig, want)
		case float64(o.sig.Rows) > oracle:
			res.fail("request %d (%s): %d rows exceed the paper's bound %g", o.idx, name, o.sig.Rows, oracle)
		default:
			return true
		}
	}
	return false
}

func (sv *serveInstance) run(ctx context.Context, d time.Duration, rec *recorder) *result {
	res := newResult()
	before := sv.eng.MetricsSnapshot()
	perClient := make([][]outcome, sv.cfg.Cores)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A client stops after the request in flight when time is
			// up; the requests of its unfinished block still count as
			// work done, the block itself yields no latency sample.
			// A client always finishes its first block, so that every
			// segment has a latency sample however short it is.
			for first := true; (first || time.Since(start) < d) && ctx.Err() == nil; first = false {
				block := int(sv.next.Add(1) - 1)
				root := rec.begin(nil, block+1, "bench", "block")
				for idx := block * blockSize; idx < (block+1)*blockSize && (first || time.Since(start) < d); idx++ {
					rs := rec.begin(root, block+1, "bench", "request:"+serveKinds[sv.seq[idx%len(sv.seq)].kind].name)
					s := rec.begin(rs, block+1, "http", "client round trip")
					o := sv.do(idx, sv.viaHTTP)
					s.end()
					s.count("status", int64(o.status))
					rs.end()
					perClient[c] = append(perClient[c], o)
				}
				root.end()
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	after := sv.eng.MetricsSnapshot()

	sv.sortCommits()
	requests := 0
	for _, outs := range perClient {
		for b := 0; b < len(outs); b += blockSize {
			block := outs[b:min(b+blockSize, len(outs))]
			var ms float64
			failedBefore := res.Failed
			for _, o := range block {
				requests++
				if sv.verify(o, res) {
					ms += o.ms
					res.add("request", o.ms)
					res.add("kind:"+serveKinds[o.kind].name, o.ms)
				}
			}
			if res.Failed > failedBefore {
				res.Failed = failedBefore + 1 // a block fails once
			}
			if len(block) == blockSize {
				res.Attempted++
				if res.Failed == failedBefore {
					res.Lat = append(res.Lat, ms)
				}
			} else if res.Failed > failedBefore {
				res.Attempted++
			}
		}
	}
	// Work done, in operations: verified requests over the block size, so
	// that throughput does not jump by a whole block at the deadline.
	res.Work = float64(len(res.Series["request"])) / blockSize
	countGauges(before, after, requests, res)
	hits, misses := gaugeDelta(before, after, "serve_cache_hits", 1), gaugeDelta(before, after, "serve_cache_misses", 1)
	res.Counts["serve.cache_hit_frac"] = absent
	if hits >= 0 && misses >= 0 {
		res.Counts["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	}
	for metric, g := range map[string]string{"serve.cache_invalidations": "serve_cache_invalidations",
		"serve.admission_queued": "serve_admission_queued", "serve.admission_rejected": "serve_admission_rejected",
		"serve.clamped": "serve_clamped"} {
		res.Counts[metric] = gaugeDelta(before, after, g, float64(requests))
	}
	return res
}

// sortCommits orders the recorded ingests by the epoch each became.
func (sv *serveInstance) sortCommits() {
	sv.mu.Lock()
	sort.Slice(sv.commits, func(i, j int) bool { return sv.commits[i].epoch < sv.commits[j].epoch })
	sv.mu.Unlock()
}

func (sv *serveInstance) probe(ctx context.Context, rec *recorder, base, traced *result, vals map[string]float64) {
	root := rec.begin(nil, 0, "bench", "probes")
	defer root.end()
	pb := &prober{ctx: ctx, rec: rec, root: root, hasher: newSigHasher(sv.eng.Dict()), reps: 3, vals: vals, checks: newResult()}
	traced.report(vals)
	series := func(name string) []float64 {
		return append(append([]float64(nil), base.Series[name]...), traced.Series[name]...)
	}
	for _, k := range serveKinds {
		vals["serve."+k.name+"_p50_ms"] = median(series("kind:" + k.name))
	}
	vals["serve.latency_p99_ms"] = percentile(sorted(series("request")), 0.99)

	// The serve building blocks alone, uncontended.
	const n = 10000
	cache := serve.NewCache[int](serveCache)
	vals["serve.cache_get_us"] = 1e3 / n * pb.timed("serve", "serve.Cache.Put+Get x10000", 1, func() error {
		for i := 0; i < n; i++ {
			cache.Put("q", uint64(i%serveCache), i)
			if _, ok := cache.Get("q", uint64(i%serveCache)); !ok {
				return fmt.Errorf("cache lost an entry it just stored")
			}
		}
		return nil
	})
	adm := serve.NewAdmission(serveAdmission, serveQueue, nil)
	vals["serve.admit_us"] = 1e3 / n * pb.timed("serve", "serve.Admission.Admit+Release x10000", 1, func() error {
		for i := 0; i < n; i++ {
			t, err := adm.Admit(ctx, 1<<10)
			if err != nil {
				return err
			}
			t.Release()
		}
		return nil
	})
	vals["txn.snapshot_us"] = 1e3 * pb.timed("txn", "Engine.Snapshot+Close", 20, func() error {
		sv.eng.Snapshot().Close()
		return nil
	})

	// Per read kind on a fresh epoch: a miss and then a hit straight
	// through the handler, the same hit over the loopback connection, and
	// the bare evaluation. Sums over the five kinds, medians of three
	// fresh epochs.
	var miss, hitDirect, hitLoop, evalMs [3]float64
	for round := range miss {
		o := sv.ingest(int(sv.next.Add(1)-1)*blockSize, sv.viaHandler)
		pb.checks.Attempted++
		sv.sortCommits()
		sv.verify(o, pb.checks)
		for k := uint8(0); k < kindIngest; k++ {
			steps := []struct {
				name string
				via  transport
				into *float64
				hit  bool
			}{
				{"Server.ServeHTTP miss:", sv.viaHandler, &miss[round], false},
				{"Server.ServeHTTP hit:", sv.viaHandler, &hitDirect[round], true},
				{"loopback hit:", sv.viaHTTP, &hitLoop[round], true},
			}
			for _, st := range steps {
				var o outcome
				layer := "serve"
				if st.name == "loopback hit:" {
					layer = "http"
				}
				*st.into += pb.timed(layer, st.name+serveKinds[k].name, 1, func() error {
					o = sv.read(k, -1, st.via)
					return nil
				})
				sv.verify(o, pb.checks)
				if o.cached != st.hit {
					pb.checks.fail("%s%s: cached=%v", st.name, serveKinds[k].name, o.cached)
				}
			}
			snap := sv.eng.Snapshot()
			var out *cqbound.Relation
			var err error
			evalMs[round] += pb.timed("engine", "Engine.Evaluate:"+serveKinds[k].name, 1, func() error {
				out, _, err = sv.eng.Evaluate(ctx, sv.queries[k], snap.DB())
				return err
			})
			if err == nil && k != kindPath3 {
				if got := pb.hasher.sig(out); got != sv.refs[k] {
					pb.checks.fail("direct %s: result %+v differs from reference %+v", serveKinds[k].name, got, sv.refs[k])
				}
			}
			if round == 0 {
				sv.coldSteps(pb, k, snap.DB())
			}
			snap.Close()
		}
	}
	vals["serve.handler_miss_ms"] = median(miss[:])
	vals["serve.encode_frac"] = 1 - ratio(median(evalMs[:]), median(miss[:]))
	vals["serve.http_overhead_ms"] = (median(hitLoop[:]) - median(hitDirect[:])) / kindIngest
	pb.intern()
	pb.spill(filepath.Join(sv.cfg.OutDir, "spill"))

	hit := vals["serve.cache_hit_frac"]
	vals["bench.intent_ok"] = b2f(hit > 0 && hit < 1 && vals["serve.cache_invalidations"] > 0)
	pb.mergeInto(traced)
}

// coldSteps times parsing and planning of one read kind on the live
// epoch — what every cache miss pays before it is admitted.
func (sv *serveInstance) coldSteps(pb *prober, kind uint8, db *cqbound.Database) {
	name, text := serveKinds[kind].name, serveKinds[kind].query
	var q *cqbound.Query
	var p *cqbound.Plan
	var err error
	pb.vals["cq.parse_us"] += 1e3 * pb.timed("cq", "cq.Parse:"+name, 5, func() error {
		q, err = cq.Parse(text)
		return err
	})
	if err != nil {
		return
	}
	pb.vals["plan.choose_us"] += 1e3 * pb.timed("plan", "plan.ChooseForDB:"+name, 5, func() error {
		p, err = plan.ChooseForDB(q, db)
		return err
	})
	if err != nil {
		return
	}
	var bound float64
	pb.vals["plan.bound_rows_us"] += 1e3 * pb.timed("plan", "plan.BoundRows:"+name, 5, func() error {
		bound, _, _ = plan.BoundRows(p, q, db)
		return nil
	})
	rows := math.Max(float64(sv.refs[kind].Rows), 1)
	pb.vals["plan.bound_slack_log2"] += math.Log2(math.Max(bound, 1)/rows) / kindIngest
	pb.vals["plan.oracle_slack_log2"] += math.Log2(math.Max(sv.oracle[kind], 1)/rows) / kindIngest
	if rows > bound {
		pb.vals["plan.bound_exceeded_ops"]++
	}
}
