package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"cqbound/internal/metrics/counter"
)

func TestHistogramExactFields(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "")
	for _, v := range []int64{1, 2, 4, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1107 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 < 2 || s.P50 > 8 {
		t.Fatalf("P50 = %d, want within a factor of two of 4", s.P50)
	}
	if s.P99 < 512 || s.P99 > 2048 {
		t.Fatalf("P99 = %d, want within a factor of two of 1000", s.P99)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := newHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(0)
	h.Observe(-5) // clamps to zero
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 {
		t.Fatalf("zero snapshot = %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Sum != 8*1000*1001/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestRegistryGaugesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(7)
	r.Gauge("g", "", func() int64 { return v })
	h := r.NewHistogram("lat", "")
	h.Observe(3)
	snap := r.Snapshot()
	if snap["g"] != int64(7) {
		t.Fatalf("gauge = %v", snap["g"])
	}
	hs, ok := snap["lat"].(HistogramSnapshot)
	if !ok || hs.Count != 1 {
		t.Fatalf("hist = %v", snap["lat"])
	}
	v = 9
	if r.Snapshot()["g"] != int64(9) {
		t.Fatal("gauge must sample at read time")
	}
	if r.NewHistogram("lat", "") != h {
		t.Fatal("NewHistogram must be idempotent per name")
	}
}

func TestServeHTTPIsExpvarShapedJSON(t *testing.T) {
	r := NewRegistry()
	r.Gauge("queries", "", func() int64 { return 42 })
	r.NewHistogram("latency", "").Observe(10)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("body is not one JSON object: %v\n%s", err, rec.Body.String())
	}
	if m["queries"] != float64(42) {
		t.Fatalf("queries = %v", m["queries"])
	}
	lat, ok := m["latency"].(map[string]any)
	if !ok || lat["count"] != float64(1) {
		t.Fatalf("latency = %v", m["latency"])
	}
}

var (
	testFamily = counter.NewFamily("fam")
	testOps    = testFamily.Counter("ops", "operations")
)

// Registering a set names its cells; Reset zeroes counters, not gauges.
func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	set := testFamily.NewSet()
	r.Counters(set)
	r.Gauge("fam_level", "a gauge", func() int64 { return 5 })
	want := []Entry{{"fam_ops", KindCounter, "operations"}, {"fam_level", KindGauge, "a gauge"}}
	if got := r.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	set.Add(testOps, 3)
	if v, _ := r.Value("fam_ops"); v != 3 {
		t.Fatalf("fam_ops = %d, want 3", v)
	}
	r.Reset()
	if v, _ := r.Value("fam_ops"); v != 0 || set.Load(testOps) != 0 {
		t.Fatalf("fam_ops = %d after Reset", v)
	}
	if v, _ := r.Value("fam_level"); v != 5 {
		t.Fatalf("Reset changed a gauge: %d", v)
	}
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" || KindHistogram.String() != "histogram" {
		t.Fatal("kinds must name their Prometheus types")
	}
}
