package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestAccessLogSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf, 10)
	for i := 0; i < 100; i++ {
		l.Log(Request{RequestID: "ok", Status: 200, Time: time.Unix(0, 0)})
	}
	if got := l.Counters().Load(logged); got != 10 {
		t.Fatalf("Logged = %d, want 10 (1-in-10 sampling)", got)
	}
	if got := l.Counters().Load(dropped); got != 90 {
		t.Fatalf("Dropped = %d, want 90", got)
	}
	// Errors and clamps bypass sampling entirely.
	l.Log(Request{RequestID: "shed", Status: 429})
	l.Log(Request{RequestID: "clamp", Status: 200, Clamped: true})
	if got := l.Counters().Load(logged); got != 12 {
		t.Fatalf("Logged after noteworthy = %d, want 12", got)
	}
	// Every line is valid JSON with the request ID intact.
	sc := bufio.NewScanner(&buf)
	lines := 0
	sawShed := false
	for sc.Scan() {
		var rec Request
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		if rec.RequestID == "shed" {
			sawShed = true
			if rec.Status != 429 {
				t.Fatalf("shed line status = %d", rec.Status)
			}
		}
		lines++
	}
	if lines != 12 {
		t.Fatalf("lines = %d, want 12", lines)
	}
	if !sawShed {
		t.Fatal("shed line missing")
	}
}

func TestAccessLogEveryOneLogsAll(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf, 1)
	for i := 0; i < 5; i++ {
		l.Log(Request{Status: 200})
	}
	if l.Counters().Load(logged) != 5 || l.Counters().Load(dropped) != 0 {
		t.Fatalf("logged/dropped = %d/%d", l.Counters().Load(logged), l.Counters().Load(dropped))
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Fatalf("lines = %d", n)
	}
	// every < 1 normalizes to 1.
	if zl := NewAccessLog(&buf, 0); zl == nil || zl.every != 1 {
		t.Fatal("every=0 must normalize to 1")
	}
}

func TestAccessLogNilSafe(t *testing.T) {
	if NewAccessLog(nil, 10) != nil {
		t.Fatal("nil writer must yield a nil log")
	}
	var l *AccessLog
	l.Log(Request{Status: 500})
	if l.Counters().Load(logged) != 0 || l.Counters().Load(dropped) != 0 {
		t.Fatal("nil log must read zero")
	}
}
