package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCalibrationRecordAndSnapshot(t *testing.T) {
	c := NewCalibration()
	// Bound overshoots by 8x (3 doublings), estimate is exact.
	for i := 0; i < 10; i++ {
		c.Record("yannakakis", "atoms=3/vars=4", 800, 100, 100)
	}
	// A second cell, estimate undershoots by 4x.
	c.Record("generic-join", "atoms=3/vars=3", 1000, 25, 100)
	snaps := c.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("cells = %d, want 2", len(snaps))
	}
	// Sorted by strategy: generic-join first.
	if snaps[0].Strategy != "generic-join" || snaps[1].Strategy != "yannakakis" {
		t.Fatalf("order = %s, %s", snaps[0].Strategy, snaps[1].Strategy)
	}
	y := snaps[1]
	if y.Count != 10 {
		t.Fatalf("count = %d", y.Count)
	}
	if got := y.Bound.MeanLog2; math.Abs(got-3) > 0.01 {
		t.Fatalf("bound mean log2 = %g, want ~3", got)
	}
	if y.Estimate.MeanLog2 != 0 {
		t.Fatalf("estimate mean log2 = %g, want 0", y.Estimate.MeanLog2)
	}
	if y.Bound.P50Log2 != 3 {
		t.Fatalf("bound p50 = %g, want 3", y.Bound.P50Log2)
	}
	if n := y.Bound.Buckets["3"]; n != 10 {
		t.Fatalf("bucket[3] = %d, want 10", n)
	}
	g := snaps[0]
	if got := g.Estimate.MeanLog2; math.Abs(got+2) > 0.01 {
		t.Fatalf("undershoot mean log2 = %g, want ~-2", got)
	}
	if c.Records() != 11 || c.Cells() != 2 {
		t.Fatalf("records/cells = %d/%d", c.Records(), c.Cells())
	}
}

func TestCalibrationEdgeCases(t *testing.T) {
	c := NewCalibration()
	c.Record("s", "q", math.Inf(1), 10, 10) // unpriceable: skipped
	c.Record("s", "q", math.NaN(), 10, 10)  // skipped
	if c.Records() != 0 {
		t.Fatalf("non-finite bounds must be skipped, records = %d", c.Records())
	}
	c.Record("s", "q", 1024, 1, 0) // empty output: actual floors at 1
	snaps := c.Snapshot()
	if snaps[0].Bound.MeanLog2 != 10 {
		t.Fatalf("empty-output bound err = %g, want 10", snaps[0].Bound.MeanLog2)
	}
	// Extreme errors clamp to the bucket range but keep the exact mean.
	c = NewCalibration()
	c.Record("s", "q", math.Ldexp(1, 60), 1, 1)
	s := c.Snapshot()[0]
	if s.Bound.MeanLog2 != 60 {
		t.Fatalf("mean = %g, want 60", s.Bound.MeanLog2)
	}
	if n := s.Bound.Buckets["32"]; n != 1 {
		t.Fatalf("extreme error must clamp into the top bucket, got %v", s.Bound.Buckets)
	}
}

func TestCalibrationNilSafe(t *testing.T) {
	var nilC *Calibration
	nilC.Record("s", "q", 1, 1, 1)
	if nilC.Records() != 0 || nilC.Cells() != 0 || nilC.Snapshot() != nil {
		t.Fatal("nil Calibration must read zero")
	}
}

func TestCalibrationPromFamilies(t *testing.T) {
	c := NewCalibration()
	for i := 0; i < 5; i++ {
		c.Record("yannakakis", "atoms=2/vars=3", 400, 90, 100)
	}
	fams := c.PromFamilies()
	if len(fams) != 2 {
		t.Fatalf("families = %d", len(fams))
	}
	var b strings.Builder
	if err := WriteProm(&b, fams); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	CheckPromText(t, body)
	for _, want := range []string{
		`calibration_bound_log2_error_bucket{strategy="yannakakis",shape="atoms=2/vars=3",le="2"} 5`,
		`calibration_bound_log2_error_count{strategy="yannakakis",shape="atoms=2/vars=3"} 5`,
		"# TYPE calibration_estimate_log2_error histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
