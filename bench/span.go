package main

// The traced run's span recorder. Spans are recorded by the benchmark
// itself, around its calls into each layer's public functions; the program
// under test is not instrumented (spans inside it are a later change).
// Spans stay in memory and are written to bench/out/trace-<workload>.json
// when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or group of calls) into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // the measured operation this span belongs to
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Probe marks an isolated layer call replayed on the op's inputs
	// beside the op, as opposed to a step of the op itself.
	Probe   bool             `json:"probe,omitempty"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	SelfNs  int64            `json:"self_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`

	rec *recorder
}

// recorder collects the spans of one run. A nil recorder records nothing:
// begin returns a nil span whose methods are no-ops, so the timed run
// shares the traced run's code path with tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (nil for a root).
func (r *recorder) begin(parent *span, op int, layer, name string) *span {
	if r == nil {
		return nil
	}
	s := &span{Op: op, Layer: layer, Name: name, rec: r}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.StartNs = time.Since(r.t0).Nanoseconds()
	return s
}

// probe opens a span flagged as an isolated layer call.
func (r *recorder) probe(parent *span, op int, layer, name string) *span {
	s := r.begin(parent, op, layer, name)
	if s != nil {
		s.Probe = true
	}
	return s
}

func (s *span) end() {
	if s != nil {
		s.EndNs = time.Since(s.rec.t0).Nanoseconds()
	}
}

// count attaches a named count to the span (rows, evictions, ...).
func (s *span) count(name string, v int64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[name] = v
}

// durationMs is the span's length in milliseconds (0 for a nil span).
func (s *span) durationMs() float64 {
	if s == nil {
		return 0
	}
	return float64(s.EndNs-s.StartNs) / 1e6
}

// selfTimes fills SelfNs of every span: its duration minus the part of
// its interval that its child spans cover. Children may nest, overlap
// each other (concurrent calls) or stick out of the parent; only the
// union of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []*span) {
	children := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		s.SelfNs = s.EndNs - s.StartNs - covered(s.StartNs, s.EndNs, children[s.ID])
		if s.SelfNs < 0 {
			s.SelfNs = 0
		}
	}
}

// covered is the length of the union of the children's intervals inside
// [lo, hi].
func covered(lo, hi int64, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, lo), min(k.EndNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// layerShares returns each layer's share of the total self time.
func layerShares(spans []*span) map[string]float64 {
	by := make(map[string]int64)
	var total int64
	for _, s := range spans {
		by[s.Layer] += s.SelfNs
		total += s.SelfNs
	}
	out := make(map[string]float64, len(by))
	for l, ns := range by {
		if total > 0 {
			out[l] = float64(ns) / float64(total)
		}
	}
	return out
}

// traceFile is the document written at the end of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Config   map[string]any     `json:"config"`
	Shares   map[string]float64 `json:"self_time_share_by_layer"`
	Spans    []*span            `json:"spans"`
}

// finish computes self times and writes the trace file to path,
// returning the per-layer shares.
func (r *recorder) finish(path, workload string, seed int64, config map[string]any) (map[string]float64, error) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	selfTimes(spans)
	shares := layerShares(spans)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Config: config, Shares: shares, Spans: spans}); err != nil {
		f.Close()
		return nil, err
	}
	return shares, f.Close()
}
