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
	rs.SetQuery("ans(X) :- r(X).")
	rs.SetState("queued", 3)
	rs.SetEpoch(7)
	rs.SetAdmission(1024, 8192, true)
	rs.SetQueueWait(5_000_000)
	rs.SetOutcome("ok")
	rs.MarkCached()
	if rs.ID() != "req-1" || !rs.Start().Equal(start) {
		t.Fatal("identity fields")
	}
	rec := rs.AccessRecord(200, 64, 12*time.Millisecond)
	if rec.RequestID != "req-1" || rec.Epoch != 7 || rec.BoundRows != 1024 ||
		rec.Charge != 8192 || rec.QueueNs != 5_000_000 || !rec.Clamped ||
		!rec.Cached || rec.Outcome != "ok" || rec.LatencyNs != 12_000_000 || rec.Bytes != 64 {
		t.Fatalf("access record = %+v", rec)
	}
}

func TestRequestStateNilSafe(t *testing.T) {
	var rs *RequestState
	rs.SetQuery("q")
	rs.SetState("queued", 1)
	rs.SetEpoch(1)
	rs.SetAdmission(1, 1, false)
	rs.SetQueueWait(1)
	rs.SetOutcome("ok")
	rs.MarkCached()
	if rs.ID() != "" || !rs.Start().IsZero() {
		t.Fatal("nil RequestState must read zero")
	}
	if rs.AccessRecord(200, 0, 0) != nil {
		t.Fatal("nil RequestState AccessRecord must be nil")
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
	hb := f.Register(b)
	ha := f.Register(a)
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	b.SetState("evaluating", 0)
	views := f.Snapshot(base.Add(3 * time.Second))
	if len(views) != 2 || views[0].RequestID != "a" || views[1].RequestID != "b" {
		t.Fatalf("snapshot order = %+v", views)
	}
	if views[0].ElapsedNs != 3*time.Second.Nanoseconds() {
		t.Fatalf("elapsed = %d", views[0].ElapsedNs)
	}
	if views[1].State != "evaluating" {
		t.Fatalf("state = %q", views[1].State)
	}
	f.Done(ha)
	f.Done(hb)
	if f.Len() != 0 {
		t.Fatalf("Len after done = %d", f.Len())
	}

	var nilF *Inflight
	if nilF.Register(a) != 0 || nilF.Len() != 0 || nilF.Snapshot(base) != nil {
		t.Fatal("nil Inflight must be inert")
	}
	nilF.Done(1)
}
