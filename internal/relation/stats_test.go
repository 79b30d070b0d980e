package relation

import (
	"strconv"
	"testing"
)

func TestDistinctCountAndSelectivity(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	r.Add("2", "x")
	r.Add("3", "y")
	if got := r.DistinctCount(0); got != 3 {
		t.Errorf("DistinctCount(0) = %d, want 3", got)
	}
	if got := r.DistinctCount(1); got != 2 {
		t.Errorf("DistinctCount(1) = %d, want 2", got)
	}
	// Stats must refresh after inserts.
	r.Add("4", "z")
	if got := r.DistinctCount(1); got != 3 {
		t.Errorf("after insert: DistinctCount(1) = %d, want 3", got)
	}
}

func TestDistinctEstimate(t *testing.T) {
	// Small relation: exact, via the same stats memo DistinctCount builds.
	small := New("S", "a")
	for i := 0; i < 100; i++ {
		small.Add(strconv.Itoa(i % 7))
	}
	if got := small.DistinctEstimate(0); got != 7 {
		t.Errorf("small DistinctEstimate = %d, want exact 7", got)
	}
	if got := small.DistinctEstimate(-1); got != 0 {
		t.Errorf("out-of-range DistinctEstimate = %d, want 0", got)
	}

	// Large relation with the stats memo already built: exact, for free.
	memoized := New("M", "a")
	for i := 0; i < 3*statsSampleCap; i++ {
		memoized.Add(strconv.Itoa(i % 100))
	}
	if got := memoized.DistinctCount(0); got != 100 {
		t.Fatalf("DistinctCount = %d, want 100", got)
	}
	if got := memoized.DistinctEstimate(0); got != 100 {
		t.Errorf("memoized DistinctEstimate = %d, want exact 100", got)
	}

	// Large unmemoized relation: sampled, within a factor of two at both
	// cardinality extremes and clamped to [sample distinct, size].
	for name, tc := range map[string]struct{ mod, want int }{
		"low-cardinality":  {50, 50},
		"high-cardinality": {0, 3 * statsSampleCap}, // mod 0 = all distinct
	} {
		r := New("L", "a")
		n := 3 * statsSampleCap
		for i := 0; i < n; i++ {
			v := i
			if tc.mod > 0 {
				v = i % tc.mod
			}
			r.Add(strconv.Itoa(v))
		}
		got := r.DistinctEstimate(0)
		if got < tc.want/2 || got > 2*tc.want {
			t.Errorf("%s: DistinctEstimate = %d, want within 2x of %d", name, got, tc.want)
		}
		if got > n {
			t.Errorf("%s: estimate %d exceeds relation size %d", name, got, n)
		}
		// The estimate itself memoizes: a second call must agree.
		if again := r.DistinctEstimate(0); again != got {
			t.Errorf("%s: repeated estimate %d != %d", name, again, got)
		}
	}
}
