package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"cqbound/internal/metrics/counter"
)

// AccessLog writes sampled JSON access lines: every non-200 and every
// clamped request is always logged (sheds, timeouts and clamps must stay
// joinable to their traces), plain 200s are sampled one-in-every. A nil
// *AccessLog drops everything.
type AccessLog struct {
	mu    sync.Mutex
	w     io.Writer
	every int64

	seq    atomic.Int64
	counts *counter.Set
}

// accessCounters is the family of the access log's counters (registry
// names serve_access_*).
var (
	accessCounters = counter.NewFamily("serve_access")
	logged         = accessCounters.Counter("logged", "access-log lines written")
	dropped        = accessCounters.Counter("dropped", "successful requests the access log's sampling skipped")
)

// NewAccessLog logs to w, sampling successful requests one-in-every
// (every <= 1 logs all of them). Returns nil when w is nil, so callers
// can thread an unconfigured log without checks.
func NewAccessLog(w io.Writer, every int) *AccessLog {
	if w == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &AccessLog{w: w, every: int64(every), counts: accessCounters.NewSet()}
}

// Log writes r as one JSON line, subject to sampling. The line carries
// everything a later join needs: the correlation ID ties it to the trace,
// the slow-query record and /debug/requests; state, outcome and status
// explain what the serving path did with the request.
func (l *AccessLog) Log(r Request) {
	if l == nil {
		return
	}
	noteworthy := r.Status != 200 || r.Clamped
	if !noteworthy && l.seq.Add(1)%l.every != 0 {
		l.counts.Add(dropped, 1)
		return
	}
	line, err := json.Marshal(r)
	if err != nil {
		return
	}
	l.counts.Add(logged, 1)
	l.mu.Lock()
	l.w.Write(append(line, '\n'))
	l.mu.Unlock()
}

// Counters returns the log's counters; a nil log returns an empty set.
func (l *AccessLog) Counters() *counter.Set {
	if l == nil {
		return accessCounters.NewSet()
	}
	return l.counts
}
