package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenFamilies is a fixed family set covering every rendered shape:
// labeled and unlabeled gauges, a counter, a power-of-two histogram, a
// labeled histogram, and escaping in help text and label values.
func goldenFamilies() []Family {
	return []Family{
		{Name: "serve_requests", Help: "requests received", Type: TypeCounter,
			Samples: []Sample{{Value: 1234}}},
		{Name: "spill_resident_bytes", Help: "bytes resident under the governor", Type: TypeGauge,
			Samples: []Sample{{Value: 65536}}},
		{Name: "labeled_rate", Help: `rate with "quotes" and back\slash`, Type: TypeGauge,
			Samples: []Sample{
				{Labels: []Label{{"window", "1m"}}, Value: 12.5},
				{Labels: []Label{{"window", "5m"}}, Value: 3.75},
			}},
		{Name: "query_latency_ns", Help: "per-query wall time", Type: TypeHistogram,
			Samples: []Sample{{
				Hist: Pow2Hist([]int64{2, 0, 1, 3, 0, 0, 4}, 420, 10),
			}}},
		{Name: "calibration_bound_log2_error", Help: "bound tightness", Type: TypeHistogram,
			Samples: []Sample{{
				Labels: []Label{{"strategy", "yannakakis"}, {"shape", "atoms=3/vars=4"}},
				Hist: &HistData{
					Bounds: []float64{-1, 0, 2, 7},
					Counts: []int64{1, 4, 3, 2},
					Sum:    14.5, Count: 10,
				},
			}}},
	}
}

func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("rendered exposition diverges from %s (run with -update to regenerate):\n--- got ---\n%s--- want ---\n%s",
			path, b.String(), want)
	}
}

func TestGoldenExpositionIsValid(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	CheckPromText(t, b.String())
}

// errorsTB records CheckPromText's complaints instead of failing.
type errorsTB struct{ errs []string }

func (r *errorsTB) Helper() {}
func (r *errorsTB) Errorf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}
func (r *errorsTB) Fatal(a ...any)                 { r.errs = append(r.errs, fmt.Sprint(a...)) }
func (r *errorsTB) Fatalf(format string, a ...any) { r.Errorf(format, a...) }

// The text format allows one TYPE line per family: a family rendered
// twice is a scrape error, not a duplicate sample.
func TestCheckPromTextRejectsRepeatedType(t *testing.T) {
	var r errorsTB
	CheckPromText(&r, "# TYPE up gauge\nup 1\n# TYPE up gauge\nup 1\n")
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "up has a second # TYPE line") {
		t.Fatalf("errors = %q, want one repeated-TYPE complaint", r.errs)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"query_latency_ns": "query_latency_ns",
		"9lives":           "_9lives",
		"a.b-c d":          "a_b_c_d",
		"":                 "_",
		"ok:colon":         "ok:colon",
	}
	for in, want := range cases {
		got := SanitizeName(in)
		if got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
		if !ValidName.MatchString(got) {
			t.Errorf("SanitizeName(%q) = %q fails ValidName", in, got)
		}
	}
}

func TestPow2HistBounds(t *testing.T) {
	h := Pow2Hist([]int64{5, 1, 0, 2, 0, 0}, 100, 8)
	// Trailing zero buckets trimmed: highest nonzero is bucket 3.
	wantBounds := []float64{0, 1, 3, 7}
	if len(h.Bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v", h.Bounds)
	}
	for i, b := range wantBounds {
		if h.Bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", h.Bounds, wantBounds)
		}
	}
	if h.Counts[0] != 5 || h.Counts[3] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Count != 8 || h.Sum != 100 {
		t.Fatalf("count/sum = %d/%g", h.Count, h.Sum)
	}
}
