package cqbound_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"cqbound"
)

// ExampleNewServer serves an Engine over HTTP: data arrives through
// POST /commit, queries evaluate through GET /query (behind bound-based
// admission control), and a repeated query on an unchanged epoch comes
// back from the result cache.
func ExampleNewServer() {
	eng := cqbound.NewEngine()
	defer eng.Close()
	srv := cqbound.NewServer(eng)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Load a small graph in one transaction; the response carries the
	// epoch the commit published.
	body := `{"ops":[
		{"op":"create","rel":"E","attrs":["x","y"]},
		{"op":"append","rel":"E","rows":[["a","b"],["b","c"],["c","d"]]}]}`
	resp, err := http.Post(ts.URL+"/commit", "application/json", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	// Evaluate a two-hop path twice: the second answer for the same
	// (query, epoch) is a cache hit.
	q := url.QueryEscape("Q(X,Z) <- E(X,Y), E(Y,Z).")
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/query?q=" + q)
		if err != nil {
			panic(err)
		}
		var out struct {
			Epoch  uint64     `json:"epoch"`
			Tuples [][]string `json:"tuples"`
			Cached bool       `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			panic(err)
		}
		resp.Body.Close()
		fmt.Printf("epoch %d: %d tuples (cached=%v)\n", out.Epoch, len(out.Tuples), out.Cached)
	}
	// Output:
	// epoch 2: 2 tuples (cached=false)
	// epoch 2: 2 tuples (cached=true)
}

// ExampleNewServer_metrics shows the serving-path observability layer:
// requests carry correlation IDs end to end, the serve families of the
// engine's registry count what the server saw, and /metrics?format=prom
// renders the same families as Prometheus text exposition.
func ExampleNewServer_metrics() {
	eng := cqbound.NewEngine()
	defer eng.Close()
	srv := cqbound.NewServer(eng)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"ops":[
		{"op":"create","rel":"E","attrs":["x","y"]},
		{"op":"append","rel":"E","rows":[["a","b"],["b","c"],["c","d"]]}]}`
	resp, err := http.Post(ts.URL+"/commit", "application/json", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	// A client-supplied X-Request-ID is echoed back and stamped on the
	// access log, the slow-query record and the rendered trace, so any
	// response is joinable to its server-side story.
	q := url.QueryEscape("Q(X,Z) <- E(X,Y), E(Y,Z).")
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest("GET", ts.URL+"/query?q="+q, nil)
		if err != nil {
			panic(err)
		}
		req.Header.Set("X-Request-ID", "doc-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		resp.Body.Close()
		if i == 0 {
			fmt.Println("request id:", resp.Header.Get("X-Request-ID"))
		}
	}

	// The registry counts what the server saw: the commit plus both
	// queries passed through, the repeat query hit the result cache, and
	// the evaluated one recorded a bound-calibration sample.
	snap := eng.MetricsSnapshot()
	fmt.Printf("requests=%d cache_hits=%d calibration_records=%d\n",
		snap["serve_requests"], snap["serve_cache_hits"], snap["calibration_records"])

	// The same families render as Prometheus text exposition.
	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		panic(err)
	}
	var prom strings.Builder
	if _, err := io.Copy(&prom, resp.Body); err != nil {
		panic(err)
	}
	resp.Body.Close()
	for _, line := range strings.Split(prom.String(), "\n") {
		if line == "# TYPE serve_latency_ns histogram" {
			fmt.Println(line)
		}
	}
	// Output:
	// request id: doc-1
	// requests=3 cache_hits=1 calibration_records=1
	// # TYPE serve_latency_ns histogram
}
