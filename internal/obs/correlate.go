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

// RequestState is one in-flight request's mutable observability record:
// the correlation ID plus everything /debug/requests and the access log
// report about it. Handlers annotate it as the request progresses;
// the in-flight registry snapshots it concurrently, hence the mutex. A
// nil *RequestState ignores every call, so handlers annotate
// unconditionally whether or not observability is on.
type RequestState struct {
	id     string
	method string
	path   string
	start  time.Time

	mu          sync.Mutex
	query       string
	state       string // received → queued → evaluating → done
	queuePos    int
	epoch       uint64
	boundRows   float64
	chargeBytes int64
	queueNs     int64
	outcome     string
	cached      bool
	clamped     bool
}

// NewRequestState starts the record for one request.
func NewRequestState(id, method, path string, start time.Time) *RequestState {
	return &RequestState{id: id, method: method, path: path, start: start, state: "received"}
}

// ID returns the correlation ID (immutable, safe without the lock).
func (rs *RequestState) ID() string {
	if rs == nil {
		return ""
	}
	return rs.id
}

// Start returns the request's arrival time.
func (rs *RequestState) Start() time.Time {
	if rs == nil {
		return time.Time{}
	}
	return rs.start
}

// SetQuery records the query text the request evaluates.
func (rs *RequestState) SetQuery(q string) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.query = q
	rs.mu.Unlock()
}

// SetEpoch records the epoch the request pinned.
func (rs *RequestState) SetEpoch(e uint64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.epoch = e
	rs.mu.Unlock()
}

// SetAdmission records the planner's row bound, the byte charge derived
// from it, and whether the charge was clamped to the whole capacity.
func (rs *RequestState) SetAdmission(boundRows float64, chargeBytes int64, clamped bool) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.boundRows, rs.chargeBytes, rs.clamped = boundRows, chargeBytes, clamped
	rs.mu.Unlock()
}

// SetState moves the request through its lifecycle (queued, evaluating,
// done); pos is the queue position when entering the queued state.
func (rs *RequestState) SetState(state string, pos int) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.state, rs.queuePos = state, pos
	rs.mu.Unlock()
}

// SetQueueWait records how long admission held the request.
func (rs *RequestState) SetQueueWait(ns int64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.queueNs = ns
	rs.mu.Unlock()
}

// SetOutcome records the request's disposition for the access log:
// ok, cached, shed, timeout, canceled, error...
func (rs *RequestState) SetOutcome(o string) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.outcome = o
	rs.mu.Unlock()
}

// MarkCached flags a result served from the (query, epoch) cache.
func (rs *RequestState) MarkCached() {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.cached = true
	rs.mu.Unlock()
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
