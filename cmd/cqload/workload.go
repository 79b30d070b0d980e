package main

// The replay harness: the dataset, the weighted request mix, and the
// concurrent client driver. All traffic goes over real HTTP — the same
// endpoints, JSON shapes and error contracts a production client sees.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqbound/internal/datagen"
	"cqbound/internal/relation"
)

// The request mix: cumulative weights out of 100, drawn per request.
type requestKind struct {
	name   string
	weight int
}

var mix = []requestKind{
	{"point", 40},    // key-anchored acyclic lookup
	{"star3", 15},    // 3-arm star join
	{"path3", 15},    // 3-hop path join
	{"triangle", 10}, // cyclic; AGM-bounded, admission's main customer
	{"zipf", 10},     // two-hop join over Zipf-skewed edges
	{"ingest", 10},   // delta commit: advances the epoch, invalidates cache
}

// queries maps each read kind to its query text over the loaded schema.
var queries = map[string]string{
	"point":    "Q(X,Y) <- K(X), E(X,Y).",
	"star3":    "Q(X,A,B,C) <- E(X,A), F(X,B), G(X,C).",
	"path3":    "Q(A,D) <- E(A,B), F(B,C), G(C,D).",
	"triangle": "Q(X,Y,Z) <- E(X,Y), F(Y,Z), G(Z,X).",
	"zipf":     "Q(X,Z) <- Z1(X,Y), Z2(Y,Z).",
}

// harness drives one server (in-process or external) through the mix.
type harness struct {
	base     string
	client   *http.Client
	rng      *rand.Rand
	edges    int
	universe int
	// ingestSeq names fresh nodes so delta commits always add new edges.
	ingestSeq atomic.Int64
}

func newHarness(base string, seed int64, edges, universe int) *harness {
	return &harness{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		}},
		rng:      rand.New(rand.NewSource(seed)),
		edges:    edges,
		universe: universe,
	}
}

type commitOp struct {
	Op    string     `json:"op"`
	Rel   string     `json:"rel"`
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
}

// load creates the schema and base data through POST /commit: three plain
// edge relations (E, F, G), two Zipf-skewed ones (Z1, Z2), and the small
// key relation K anchoring the point lookups.
func (h *harness) load() error {
	db := datagen.EdgeDB(h.rng, []string{"E", "F", "G"}, h.edges, h.universe)
	zdb := datagen.ZipfEdgeDB(h.rng, []string{"Z1", "Z2"}, h.edges, h.universe, 1.5)
	ops := []commitOp{}
	stage := func(db interface {
		Names() []string
		Relation(string) *relation.Relation
	}) {
		for _, name := range db.Names() {
			r := db.Relation(name)
			rows := make([][]string, 0, r.Size())
			r.Each(func(tp relation.Tuple) bool {
				rows = append(rows, tp.Strings())
				return true
			})
			ops = append(ops, commitOp{Op: "create", Rel: name, Attrs: r.Attrs},
				commitOp{Op: "append", Rel: name, Rows: rows})
		}
	}
	stage(db)
	stage(zdb)
	keys := make([][]string, 0, 8)
	for i := 0; i < 8; i++ {
		keys = append(keys, []string{fmt.Sprintf("u%d", h.rng.Intn(h.universe))})
	}
	ops = append(ops, commitOp{Op: "create", Rel: "K", Attrs: []string{"k"}},
		commitOp{Op: "append", Rel: "K", Rows: keys})
	return h.commit(ops)
}

func (h *harness) commit(ops []commitOp) error {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return err
	}
	resp, err := h.client.Post(h.base+"/commit", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST /commit: status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// outcome is one request's measurement.
type outcome struct {
	kind    string
	status  int
	cached  bool
	latency time.Duration
}

// run replays `requests` mixed requests at the given concurrency and
// aggregates the level's result.
func (h *harness) run(concurrency, requests int) (*LoadLevelResult, error) {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes = make([]outcome, 0, requests)
		firstErr error
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			local := make([]outcome, 0, requests/concurrency+1)
			for int(next.Add(1)) <= requests {
				o, err := h.one(rng)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, o)
			}
			mu.Lock()
			outcomes = append(outcomes, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	res := &LoadLevelResult{Concurrency: concurrency}
	var lat []time.Duration
	for _, o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			res.Succeeded++
			if o.cached {
				res.CacheHits++
			}
			if o.kind == "ingest" {
				res.Commits++
			}
			lat = append(lat, o.latency)
		case o.status == http.StatusTooManyRequests:
			res.Rejected++
		default:
			res.Errors++
		}
	}
	if wall > 0 {
		res.Throughput = float64(res.Succeeded) / wall.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		res.P50Ns = lat[n/2].Nanoseconds()
		res.P99Ns = lat[n*99/100].Nanoseconds()
	}
	res.PeakRSSBytes = peakRSS()
	return res, nil
}

// one issues a single request drawn from the mix.
func (h *harness) one(rng *rand.Rand) (outcome, error) {
	draw, kind := rng.Intn(100), ""
	for _, k := range mix {
		if draw < k.weight {
			kind = k.name
			break
		}
		draw -= k.weight
	}
	start := time.Now()
	if kind == "ingest" {
		rows := make([][]string, 0, 4)
		for i := 0; i < 4; i++ {
			rows = append(rows, []string{
				fmt.Sprintf("n%d", h.ingestSeq.Add(1)),
				fmt.Sprintf("u%d", rng.Intn(h.universe)),
			})
		}
		err := h.commit([]commitOp{{Op: "append", Rel: "E", Rows: rows}})
		status := http.StatusOK
		if err != nil {
			return outcome{}, err
		}
		return outcome{kind: kind, status: status, latency: time.Since(start)}, nil
	}
	v := url.Values{"q": {queries[kind]}}
	resp, err := h.client.Get(h.base + "/query?" + v.Encode())
	if err != nil {
		return outcome{}, err
	}
	o := outcome{kind: kind, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var body struct {
			Cached bool `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			resp.Body.Close()
			return outcome{}, err
		}
		o.cached = body.Cached
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.latency = time.Since(start)
	return o, nil
}
