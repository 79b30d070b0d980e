package obs

import (
	"math"
	"testing"
	"time"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		p99  time.Duration
		want int
	}{
		{p99: 0, want: 1},                       // nothing waited: retry now
		{p99: -time.Second, want: 1},            // defensive
		{p99: 200 * time.Millisecond, want: 1},  // under a second rounds up to 1
		{p99: time.Second, want: 1},             // exactly one second
		{p99: time.Second + 1, want: 2},         // a nanosecond over rounds up
		{p99: 4500 * time.Millisecond, want: 5}, // rounds up, not to nearest
		{p99: 30 * time.Second, want: 30},       // at the cap
		{p99: 3 * time.Minute, want: 30},        // past the cap clamps
		{p99: math.MaxInt64, want: 30},          // no overflow at the top
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(int64(c.p99)); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.p99, got, c.want)
		}
	}
}
