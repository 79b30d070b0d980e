package obs

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNewIDUniqueAndValid(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if !validID(id) {
			t.Fatalf("NewID() = %q fails validID", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestIDFromHeaders(t *testing.T) {
	h := http.Header{}
	if got := IDFromHeaders(h); got != "" {
		t.Fatalf("empty headers → %q, want empty", got)
	}
	h.Set(HeaderRequestID, "client-supplied-42")
	if got := IDFromHeaders(h); got != "client-supplied-42" {
		t.Fatalf("IDFromHeaders = %q", got)
	}
	// Hostile values are rejected: too long, control chars, spaces.
	h.Set(HeaderRequestID, strings.Repeat("x", maxIDLen+1))
	if got := IDFromHeaders(h); got != "" {
		t.Fatalf("overlong ID accepted: %q", got)
	}
	h.Set(HeaderRequestID, "has space")
	if got := IDFromHeaders(h); got != "" {
		t.Fatalf("ID with space accepted: %q", got)
	}
	h.Set(HeaderRequestID, "newline\nsplit")
	if got := IDFromHeaders(h); got != "" {
		t.Fatalf("ID with newline accepted: %q", got)
	}
	// traceparent is the fallback when X-Request-ID is absent/invalid.
	h.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if got := IDFromHeaders(h); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("traceparent fallback = %q", got)
	}
	h.Del("traceparent")
	h.Del(HeaderRequestID)
	h.Set("traceparent", "00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	if got := IDFromHeaders(h); got != "" {
		t.Fatalf("all-zero trace-id accepted: %q", got)
	}
}

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"", "", false},
		{"garbage", "", false},
		{"00-xyz92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},       // non-hex
		{"00-4bf92f3577b34da6a3ce929d0e0e4736+00f067aa0ba902b7-01", "", false},       // wrong separator
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},       // version ff is invalid
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", "", false},       // all-zero parent-id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-zzzzzzzzzzzzzzzz-zz", "", false},       // non-hex parent-id and flags
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", "", false}, // version 00 has exactly four fields
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", false},       // all-zero trace-id
		// A later version may append fields after the flags.
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", "4bf92f3577b34da6a3ce929d0e0e4736", true},
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseTraceparent(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRequestStateLifecycle(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	rs := NewRequestState("req-1", "POST", "/query", start)
	if got := rs.Snapshot(start); got.State != "received" || got.Time != start || got.Method != "POST" || got.Path != "/query" {
		t.Fatalf("fresh record = %+v", got)
	}
	rs.Update(func(r *Request) {
		r.Query, r.Epoch = "ans(X) :- r(X).", 7
		r.BoundRows, r.Charge, r.Clamped = 1024, 8192, true
		r.State, r.QueuePos, r.QueueNs = "queued", 3, 5_000_000
	})
	rs.Update(func(r *Request) { r.State, r.Outcome, r.Status, r.Bytes = "done", "ok", 200, 64 })
	if rs.ID() != "req-1" {
		t.Fatal("identity fields")
	}
	got := rs.Snapshot(start.Add(12 * time.Millisecond))
	want := Request{Time: start, RequestID: "req-1", Method: "POST", Path: "/query",
		Query: "ans(X) :- r(X).", State: "done", QueuePos: 3, Status: 200, Outcome: "ok", Epoch: 7,
		Clamped: true, BoundRows: 1024, Charge: 8192, QueueNs: 5_000_000, ElapsedNs: 12_000_000, Bytes: 64}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

func TestRequestStateNilSafe(t *testing.T) {
	var rs *RequestState
	rs.Update(func(r *Request) { t.Fatal("Update on a nil state must not call fn") })
	if rs.ID() != "" || rs.Snapshot(time.Now()) != (Request{}) {
		t.Fatal("nil RequestState must read zero")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if RequestFrom(ctx) != nil || RequestID(ctx) != "" {
		t.Fatal("empty context must yield nil/empty")
	}
	rs := NewRequestState("ctx-id", "POST", "/query", time.Now())
	ctx = WithRequest(ctx, rs)
	if RequestFrom(ctx) != rs {
		t.Fatal("RequestFrom must return the attached state")
	}
	if RequestID(ctx) != "ctx-id" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
}

func TestInflightRegistry(t *testing.T) {
	f := NewInflight()
	base := time.Unix(1_700_000_000, 0)
	a := NewRequestState("a", "POST", "/query", base)
	b := NewRequestState("b", "POST", "/query", base.Add(time.Second))
	f.Register(b)
	f.Register(a)
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	b.Update(func(r *Request) { r.State = "evaluating" })
	reqs := f.Snapshot(base.Add(3 * time.Second))
	if len(reqs) != 2 || reqs[0].RequestID != "a" || reqs[1].RequestID != "b" {
		t.Fatalf("snapshot order = %+v", reqs)
	}
	if reqs[0].ElapsedNs != 3*time.Second.Nanoseconds() || !reqs[1].Time.Equal(base.Add(time.Second)) {
		t.Fatalf("elapsed = %d, time = %v", reqs[0].ElapsedNs, reqs[1].Time)
	}
	if reqs[1].State != "evaluating" {
		t.Fatalf("state = %q", reqs[1].State)
	}
	f.Done(a)
	f.Done(b)
	if f.Len() != 0 {
		t.Fatalf("Len after done = %d", f.Len())
	}

	var nilF *Inflight
	nilF.Register(a)
	nilF.Done(a)
	if nilF.Len() != 0 || nilF.Snapshot(base) != nil {
		t.Fatal("nil Inflight must be inert")
	}
}
