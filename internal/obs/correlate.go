package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderRequestID is the request/response header carrying the request ID.
const HeaderRequestID = "X-Request-ID"

// maxIDLen bounds accepted client-supplied request IDs; longer (or
// non-printable) values are discarded and a fresh ID generated, so a
// hostile header can never pollute logs or metrics labels.
const maxIDLen = 128

// idPrefix makes IDs unique across processes without paying a crypto/rand
// read per request: eight random hex digits at startup plus an atomic
// sequence number per ID.
var (
	idPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
		}
		return hex.EncodeToString(b[:])
	}()
	idSeq atomic.Uint64
)

// NewID returns a fresh request ID: a per-process random prefix and a
// sequence number. Cheap enough for the per-request hot path.
func NewID() string {
	return fmt.Sprintf("%s-%06x", idPrefix, idSeq.Add(1))
}

// validID reports whether a client-supplied ID is safe to carry through
// logs and headers: non-empty, bounded, printable ASCII without spaces.
func validID(s string) bool {
	if len(s) == 0 || len(s) > maxIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// IDFromHeaders extracts the request ID a client supplied: X-Request-ID
// when present and valid, else the trace-id field of a W3C traceparent
// header. Empty when the client sent neither — the caller generates one.
func IDFromHeaders(h http.Header) string {
	if id := h.Get(HeaderRequestID); validID(id) {
		return id
	}
	if tid, ok := ParseTraceparent(h.Get("traceparent")); ok {
		return tid
	}
	return ""
}

// ParseTraceparent extracts the 32-hex-digit trace-id from a W3C
// traceparent header (version-traceid-parentid-flags). As the spec
// requires, it rejects version ff, an all-zero trace-id or parent-id,
// fields that are not lowercase hex, and a version-00 header longer than
// its four fields; a later version may append "-" and more fields.
func ParseTraceparent(s string) (traceID string, ok bool) {
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (parent-id) + 1 + 2 (flags)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return "", false
	}
	version, tid, pid, flags := s[:2], s[3:35], s[36:52], s[53:55]
	if hex, _ := lowerHex(version); !hex || version == "ff" {
		return "", false
	}
	if len(s) > 55 && (version == "00" || s[55] != '-') {
		return "", false
	}
	if hex, nonzero := lowerHex(tid); !hex || !nonzero {
		return "", false
	}
	if hex, nonzero := lowerHex(pid); !hex || !nonzero {
		return "", false
	}
	if hex, _ := lowerHex(flags); !hex {
		return "", false
	}
	return tid, true
}

// lowerHex reports whether s is all lowercase hex digits and whether any
// of them is not '0'.
func lowerHex(s string) (hex, nonzero bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false, false
		}
		nonzero = nonzero || c != '0'
	}
	return true, nonzero
}

// Request is the one record of one HTTP request: /debug/requests lists
// it while the handler runs and the access log writes it once the
// response is out, so both carry the same keys. Time, RequestID, Method
// and Path are fixed when the request arrives; handlers fill in the rest
// as it progresses. BoundRows is the paper's worst-case output size (Thm
// 4.4 / AGM) the admission charge was priced from.
type Request struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Query     string    `json:"query,omitempty"`
	State     string    `json:"state"` // received → queued → evaluating → done
	QueuePos  int       `json:"queue_pos,omitempty"`
	Status    int       `json:"status,omitempty"`
	Outcome   string    `json:"outcome,omitempty"` // ok, cached, shed, timeout, canceled, error
	Epoch     uint64    `json:"epoch,omitempty"`
	Cached    bool      `json:"cached,omitempty"`
	Clamped   bool      `json:"clamped,omitempty"`
	BoundRows float64   `json:"bound_rows,omitempty"`
	Charge    int64     `json:"charge_bytes,omitempty"`
	QueueNs   int64     `json:"queue_ns,omitempty"`
	ElapsedNs int64     `json:"elapsed_ns"`
	Bytes     int64     `json:"bytes,omitempty"`
}

// RequestState guards one request's Request: its handler updates it while
// the in-flight registry snapshots it from other goroutines, hence the
// mutex. A nil *RequestState ignores every call, so handlers annotate
// unconditionally whether or not observability is on.
type RequestState struct {
	mu sync.Mutex
	r  Request
}

// NewRequestState starts the record for one request, in state received.
func NewRequestState(id, method, path string, start time.Time) *RequestState {
	return &RequestState{r: Request{Time: start, RequestID: id, Method: method, Path: path, State: "received"}}
}

// ID returns the correlation ID (fixed at arrival, safe without the lock).
func (rs *RequestState) ID() string {
	if rs == nil {
		return ""
	}
	return rs.r.RequestID
}

// Update applies fn to the record under the lock. fn must not change the
// fields fixed at arrival.
func (rs *RequestState) Update(fn func(*Request)) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	fn(&rs.r)
	rs.mu.Unlock()
}

// Snapshot copies the record with ElapsedNs measured up to now.
func (rs *RequestState) Snapshot(now time.Time) Request {
	if rs == nil {
		return Request{}
	}
	rs.mu.Lock()
	r := rs.r
	rs.mu.Unlock()
	r.ElapsedNs = now.Sub(r.Time).Nanoseconds()
	return r
}

// ctxKey keys the RequestState in a request context.
type ctxKey struct{}

// WithRequest attaches rs to ctx.
func WithRequest(ctx context.Context, rs *RequestState) context.Context {
	return context.WithValue(ctx, ctxKey{}, rs)
}

// RequestFrom returns the RequestState attached to ctx, or nil.
func RequestFrom(ctx context.Context) *RequestState {
	rs, _ := ctx.Value(ctxKey{}).(*RequestState)
	return rs
}

// RequestID returns the correlation ID attached to ctx, or "". The engine
// reads it when opening a trace so the rendered span tree carries the
// same ID as the HTTP-side logs.
func RequestID(ctx context.Context) string {
	return RequestFrom(ctx).ID()
}
