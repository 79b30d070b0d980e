package obs

import (
	"sort"
	"sync"
	"time"
)

// Inflight is the registry behind /debug/requests: every request in
// flight, snapshottable while the handlers still run. A nil *Inflight
// ignores everything.
type Inflight struct {
	mu sync.Mutex
	m  map[*RequestState]struct{}
}

// NewInflight returns an empty registry.
func NewInflight() *Inflight {
	return &Inflight{m: make(map[*RequestState]struct{})}
}

// Register adds rs.
func (f *Inflight) Register(rs *RequestState) {
	if f == nil || rs == nil {
		return
	}
	f.mu.Lock()
	f.m[rs] = struct{}{}
	f.mu.Unlock()
}

// Done removes a registered request.
func (f *Inflight) Done(rs *RequestState) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.m, rs)
	f.mu.Unlock()
}

// Len returns the number of requests currently in flight (a gauge).
func (f *Inflight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// Snapshot copies every in-flight request, oldest first.
func (f *Inflight) Snapshot(now time.Time) []Request {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	states := make([]*RequestState, 0, len(f.m))
	for rs := range f.m {
		states = append(states, rs)
	}
	f.mu.Unlock()
	out := make([]Request, len(states))
	for i, rs := range states {
		out[i] = rs.Snapshot(now)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}
