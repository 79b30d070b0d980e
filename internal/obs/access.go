package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cqbound/internal/metrics/counter"
)

// AccessRecord is one JSON line of the access log. Everything a later
// join needs is here: the correlation ID ties the line to the trace, the
// slow-query record and /debug/requests; outcome and status explain what
// the serving path did with the request.
type AccessRecord struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Query     string    `json:"query,omitempty"`
	Status    int       `json:"status"`
	Outcome   string    `json:"outcome,omitempty"` // ok, cached, shed, timeout, canceled, error
	Epoch     uint64    `json:"epoch,omitempty"`
	Cached    bool      `json:"cached,omitempty"`
	Clamped   bool      `json:"clamped,omitempty"`
	BoundRows float64   `json:"bound_rows,omitempty"`
	Charge    int64     `json:"charge_bytes,omitempty"`
	QueueNs   int64     `json:"queue_ns,omitempty"`
	LatencyNs int64     `json:"latency_ns"`
	Bytes     int64     `json:"bytes"`
}

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

// Log writes rec as one JSON line, subject to sampling.
func (l *AccessLog) Log(rec *AccessRecord) {
	if l == nil || rec == nil {
		return
	}
	noteworthy := rec.Status != 200 || rec.Clamped
	if !noteworthy && l.seq.Add(1)%l.every != 0 {
		l.counts.Add(dropped, 1)
		return
	}
	line, err := json.Marshal(rec)
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
