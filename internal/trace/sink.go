package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Sink receives finished traces from the engine. Emit is called
// synchronously after each traced evaluation (concurrent evaluations call
// it concurrently — implementations must be safe for that) with an
// immutable Trace; implementations must not retain and mutate it.
type Sink interface {
	Emit(*Trace)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Trace)

// Emit implements Sink.
func (f SinkFunc) Emit(t *Trace) { f(t) }

// SlowQueryLog is a Sink that writes one structured JSON line per trace
// whose wall time meets or exceeds a threshold; the engine registers one
// through WithTraceSink.
type SlowQueryLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowQueryLog logs traces at least threshold long to w as JSON lines.
// A zero threshold logs every trace.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return &SlowQueryLog{w: w, threshold: threshold}
}

// slowQueryRecord is the JSON-lines schema of the slow-query log.
type slowQueryRecord struct {
	Time       time.Time        `json:"time"`
	RequestID  string           `json:"request_id,omitempty"`
	Query      string           `json:"query"`
	Strategy   string           `json:"strategy"`
	DurationMS float64          `json:"duration_ms"`
	Threshold  float64          `json:"threshold_ms"`
	Spans      int              `json:"spans"`
	RowsOut    int64            `json:"rows_out"`
	PeakStage  string           `json:"peak_stage,omitempty"`
	Deltas     map[string]int64 `json:"deltas,omitempty"`
}

// Emit implements Sink: traces shorter than the threshold are dropped,
// the rest serialize as one JSON line (query, strategy, duration, span
// count, output rows, the slowest stage, and all nonzero stats deltas as
// "family.counter" keys).
func (l *SlowQueryLog) Emit(t *Trace) {
	if t == nil || t.Duration < l.threshold {
		return
	}
	rec := slowQueryRecord{
		Time:       t.Start,
		RequestID:  t.RequestID,
		Query:      t.Query,
		Strategy:   t.Strategy,
		DurationMS: float64(t.Duration) / float64(time.Millisecond),
		Threshold:  float64(l.threshold) / float64(time.Millisecond),
		Spans:      t.SpanCount(),
		RowsOut:    t.Root.RowsOut(),
		PeakStage:  slowestStage(t.Root),
	}
	for _, f := range t.Deltas {
		for _, c := range f.Counters {
			if c.Value == 0 {
				continue
			}
			if rec.Deltas == nil {
				rec.Deltas = make(map[string]int64)
			}
			rec.Deltas[f.Family+"."+c.Name] = c.Value
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}

// slowestStage names the direct child of the root with the longest wall
// time — the first place to look in a slow-query record.
func slowestStage(root *Span) string {
	var name string
	var max time.Duration
	for _, c := range root.Children() {
		if d := c.Duration(); d > max {
			max, name = d, c.Name()
		}
	}
	return name
}
