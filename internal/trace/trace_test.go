package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if tr.Root() != nil || tr.Stage(KindStage, "s") != nil || tr.Op(KindJoin, "j") != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	if tr.Finish() != nil {
		t.Fatal("nil tracer Finish must return nil")
	}
	tr.SetStrategy("x") // must not panic
	var sp *Span
	sp.End()
	sp.Arm(3)
	sp.Done()
	sp.AddIn(1)
	sp.AddOut(2)
	sp.AddBatch(3)
	sp.SetNote("n")
	sp.SetEst(1)
	sp.SetShards(4)
	sp.AddSpill(1, 1)
	if sp.RowsIn() != 0 || sp.RowsOut() != 0 || sp.Batches() != 0 || sp.Duration() != 0 {
		t.Fatal("nil span accessors must read zero")
	}
	if _, ok := sp.Est(); ok {
		t.Fatal("nil span must report no estimate")
	}
	var tc *Trace
	if tc.Render() != "" || tc.SpanCount() != 0 {
		t.Fatal("nil trace must render empty")
	}
}

func TestSpanTreeAndCounters(t *testing.T) {
	tr := NewTracer("Q(X) <- R(X).")
	tr.SetStrategy("yannakakis")
	st := tr.Stage(KindStage, "bindings")
	op := tr.Op(KindScan, "scan R")
	op.AddOut(10)
	op.End()
	st.End()
	st2 := tr.Stage(KindStage, "join pass")
	j := tr.Op(KindJoin, "⋈ R")
	j.AddIn(10)
	j.AddOut(5)
	j.SetEst(7.5)
	j.SetShards(4)
	j.AddSpill(2, 1)
	j.End()
	st2.End()
	tr.Root().AddOut(5)
	tc := tr.Finish()
	if tc.Strategy != "yannakakis" || tc.Query != "Q(X) <- R(X)." {
		t.Fatalf("trace header = %q/%q", tc.Strategy, tc.Query)
	}
	if got := tc.SpanCount(); got != 5 {
		t.Fatalf("SpanCount = %d, want 5 (root + 2 stages + 2 ops)", got)
	}
	kids := tc.Root.Children()
	if len(kids) != 2 || kids[0].Name() != "bindings" || kids[1].Name() != "join pass" {
		t.Fatalf("stage children = %v", kids)
	}
	if ops := kids[1].Children(); len(ops) != 1 || ops[0].RowsIn() != 10 || ops[0].RowsOut() != 5 {
		t.Fatalf("join op children wrong: %+v", ops)
	}
	if est, ok := kids[1].Children()[0].Est(); !ok || est != 7.5 {
		t.Fatalf("est = %v/%v", est, ok)
	}
	if ev, rl := kids[1].Children()[0].Spill(); ev != 2 || rl != 1 {
		t.Fatalf("spill = %d/%d", ev, rl)
	}
	if tc.Root.Duration() <= 0 {
		t.Fatal("finished root must have positive duration")
	}
}

func TestArmDoneClosesAtLastPart(t *testing.T) {
	tr := NewTracer("q")
	sp := tr.Op(KindJoin, "piped")
	sp.Arm(3)
	sp.Done()
	sp.Done()
	if sp.Duration() != 0 {
		t.Fatal("span must stay open until the last armed part is done")
	}
	sp.Done()
	if sp.Duration() <= 0 {
		t.Fatal("span must close at the last Done")
	}
	d := sp.Duration()
	sp.Done() // extra Done must not reopen or change the duration
	if sp.Duration() != d {
		t.Fatal("extra Done changed the duration")
	}
}

func TestFinishForceClosesOpenSpans(t *testing.T) {
	tr := NewTracer("q")
	st := tr.Stage(KindStage, "pipeline")
	op := tr.Op(KindJoin, "abandoned")
	op.Arm(2)
	op.Done() // one part never drains
	tc := tr.Finish()
	if st.Duration() <= 0 || op.Duration() <= 0 {
		t.Fatal("Finish must force-close open spans")
	}
	if tc.Duration <= 0 {
		t.Fatal("trace duration missing")
	}
}

func TestConcurrentOpsUnderOneStage(t *testing.T) {
	tr := NewTracer("q")
	tr.Stage(KindStage, "parallel stage")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Op(KindSemijoin, "worker")
			sp.AddIn(1)
			sp.AddOut(1)
			sp.End()
		}()
	}
	wg.Wait()
	tc := tr.Finish()
	if got := tc.SpanCount(); got != 34 {
		t.Fatalf("SpanCount = %d, want 34", got)
	}
}

func TestRenderShowsEstimatesAndDeltas(t *testing.T) {
	tr := NewTracer("Q(X) <- R(X).")
	tr.SetStrategy("project-early")
	j := tr.Op(KindJoin, "⋈ R")
	j.AddIn(100)
	j.AddOut(40)
	j.SetEst(62.5)
	j.End()
	tc := tr.Finish()
	tc.Deltas = map[string]int64{"stream_rows": 40, "cache_hits": 1}
	out := tc.Render()
	if !strings.HasPrefix(out, "strategy: project-early\n") {
		t.Fatalf("first line not deterministic: %q", out)
	}
	for _, want := range []string{"rows 100→40", "est=62.5", "[join]", "deltas\n  cache_hits=+1\n  stream_rows=+40\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSlowQueryLogThresholdAndSchema(t *testing.T) {
	mk := func(d time.Duration) *Trace {
		tr := NewTracer("Q(X) <- R(X).")
		tr.SetStrategy("yannakakis")
		st := tr.Stage(KindStage, "join pass")
		time.Sleep(d)
		st.End()
		tc := tr.Finish()
		tc.Deltas = map[string]int64{"stream_batches": 3}
		return tc
	}
	var buf bytes.Buffer
	log := NewSlowQueryLog(&buf, 50*time.Millisecond)
	log.Emit(mk(0))
	if buf.Len() != 0 {
		t.Fatalf("fast query must be dropped, got %q", buf.String())
	}
	log.Emit(mk(60 * time.Millisecond))
	if buf.Len() == 0 {
		t.Fatal("slow query must be logged")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if rec["query"] != "Q(X) <- R(X)." || rec["strategy"] != "yannakakis" {
		t.Fatalf("record = %v", rec)
	}
	if rec["peak_stage"] != "join pass" {
		t.Fatalf("peak_stage = %v", rec["peak_stage"])
	}
	if deltas := rec["deltas"].(map[string]any); len(deltas) != 1 || deltas["stream_batches"] != float64(3) {
		t.Fatalf("deltas = %v, want the trace's under their registry names", deltas)
	}

	// Zero threshold logs everything; SinkFunc adapts.
	buf.Reset()
	all := NewSlowQueryLog(&buf, 0)
	all.Emit(mk(0))
	if buf.Len() == 0 {
		t.Fatal("zero threshold must log every trace")
	}
	var n int
	SinkFunc(func(*Trace) { n++ }).Emit(mk(0))
	if n != 1 {
		t.Fatal("SinkFunc must forward Emit")
	}
}
