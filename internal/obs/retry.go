package obs

import "time"

// maxRetryAfter caps the Retry-After hint: past half a minute a client is
// better served by its own backoff than by our estimate.
const maxRetryAfter = 30

// RetryAfterSeconds turns the p99 admission queue wait, in nanoseconds,
// into the Retry-After hint for a shed request: a shed client waits about
// as long as a queued one did, rounded up to whole seconds and clamped to
// [1, 30].
func RetryAfterSeconds(queueWaitP99Ns int64) int {
	wait := time.Duration(queueWaitP99Ns)
	if wait > maxRetryAfter*time.Second {
		return maxRetryAfter
	}
	return int(max((wait+time.Second-1)/time.Second, 1))
}
