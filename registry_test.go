package cqbound

import (
	"bufio"
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cqbound/internal/metrics"
	"cqbound/internal/obs"
)

// counterFamilies are the prefixes of every counter family the registry
// holds behind a Server; a counter outside all of them fails the walk.
var counterFamilies = []string{"cache_", "shard_", "stream_", "spill_", "epoch_",
	"serve_", "serve_admission_", "serve_cache_", "serve_access_", "calibration_"}

// busyServer builds a sharded, budgeted engine behind a Server and drives
// every counter family: traced evaluations (cache, shard, stream, and
// spill, which governs the reductions of the path's Yannakakis plan), a
// commit (epoch), and a miss and a hit through the HTTP front-end (serve,
// admission, result cache, access log, calibration).
func busyServer(t *testing.T) (*Engine, *Server) {
	t.Helper()
	eng := NewEngine(WithSharding(1, 4), WithMemoryBudget(512))
	t.Cleanup(func() { eng.Close() })
	var access bytes.Buffer
	srv := NewServer(eng, WithAccessLog(&access, 1))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	q := MustParse("Q(X,W) <- E(X,Y), E(Y,Z), E(Z,W).")
	db := triangleDB(40, 6)
	for i := 0; i < 3; i++ {
		if _, _, _, err := eng.EvaluateTraced(ctx, q, db); err != nil {
			t.Fatal(err)
		}
	}
	tx := eng.Begin()
	if err := tx.Create("W", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add("W", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/query?"+url.Values{"q": {"Q(X) <- W(X)."}}.Encode(), nil))
		if rec.Code != 200 {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
	}
	return eng, srv
}

// TestResetStatsZeroesAllCounterFamilies walks the registry: after activity in
// every counter family, ResetStats must zero every counter-kind entry and
// leave every gauge and histogram as it was.
func TestResetStatsZeroesAllCounterFamilies(t *testing.T) {
	eng, _ := busyServer(t)
	reg := eng.Metrics()
	before := eng.MetricsSnapshot()
	active := map[string]bool{}
	for _, e := range reg.Entries() {
		if e.Kind != metrics.KindCounter {
			continue
		}
		family := ""
		for _, f := range counterFamilies {
			if strings.HasPrefix(e.Name, f) && len(f) > len(family) {
				family = f
			}
		}
		if family == "" {
			t.Errorf("counter %s belongs to no known family", e.Name)
		}
		v := before[e.Name].(int64)
		if v < 0 {
			t.Errorf("counter %s = %d is negative", e.Name, v)
		}
		active[family] = active[family] || v != 0
	}
	for _, f := range counterFamilies {
		if !active[f] {
			t.Errorf("setup left every %s* counter at zero", f)
		}
	}

	eng.ResetStats()
	after := eng.MetricsSnapshot()
	for _, e := range reg.Entries() {
		switch {
		case e.Kind == metrics.KindCounter && after[e.Name] != int64(0):
			t.Errorf("counter %s = %v after ResetStats, want 0", e.Name, after[e.Name])
		case e.Kind != metrics.KindCounter && !reflect.DeepEqual(after[e.Name], before[e.Name]):
			t.Errorf("%s %s changed on ResetStats: %v -> %v", e.Kind, e.Name, before[e.Name], after[e.Name])
		}
	}
}

// TestPromTypesAreDeclaredKinds renders the Prometheus exposition and
// checks each registry entry's TYPE line against its declared kind.
func TestPromTypesAreDeclaredKinds(t *testing.T) {
	eng, srv := busyServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	body := rec.Body.String()
	obs.CheckPromText(t, body)
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		}
	}
	for _, e := range eng.Metrics().Entries() {
		if got := types[obs.SanitizeName(e.Name)]; got != e.Kind.String() {
			t.Errorf("%s renders as %q, declared %s", e.Name, got, e.Kind)
		}
	}
	for name, want := range map[string]string{
		"shard_sharded_ops": "counter", "stream_rows": "counter", "spill_pin_waits": "counter",
		"epoch_compactions": "counter", "serve_shed": "counter", "calibration_records": "counter",
		"spill_resident_bytes": "gauge", "serve_inflight": "gauge", "query_latency_ns": "histogram",
	} {
		if types[name] != want {
			t.Errorf("%s renders as %q, want %s", name, types[name], want)
		}
	}
}

// TestReadmeListsTheRegistry holds README's table of registry names to the
// registry: the same (name, kind) pairs, no more and no fewer, each
// explained by its declared help text.
func TestReadmeListsTheRegistry(t *testing.T) {
	eng, _ := busyServer(t)
	var want []string
	for _, e := range eng.Metrics().Entries() {
		want = append(want, e.Name+" | "+e.Kind.String()+" | "+e.Help)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Name | Kind | Meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README has no registry table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var got []string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) != 3 {
			t.Fatalf("malformed registry table row %q", line)
		}
		got = append(got, strings.Trim(cells[0], "|` ")+" | "+cells[1]+" | "+strings.TrimSuffix(cells[2], " |"))
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("README's registry table differs from the registry:\nREADME:   %v\nregistry: %v", got, want)
	}
}
