package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Render formats the trace as an EXPLAIN ANALYZE text: a deterministic
// "strategy:" header line, the span tree with estimated-vs-actual row
// counts, and the per-query counter deltas, one per line, sorted by
// registry name. Row counts, fan-out and wall times vary run to run; only
// the first line is stable output.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", t.Strategy)
	if t.RequestID != "" {
		fmt.Fprintf(&b, "request: %s\n", t.RequestID)
	}
	if t.Query != "" {
		fmt.Fprintf(&b, "query: %s\n", t.Query)
	}
	fmt.Fprintf(&b, "wall %s · %d spans · %d rows out\n",
		fmtDur(t.Duration), t.SpanCount(), t.Root.RowsOut())
	if t.Root != nil {
		renderSpan(&b, t.Root, "", "")
	}
	if len(t.Deltas) > 0 {
		b.WriteString("deltas\n")
		names := make([]string, 0, len(t.Deltas))
		for name := range t.Deltas {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %s=+%d\n", name, t.Deltas[name])
		}
	}
	return b.String()
}

// String implements fmt.Stringer via Render.
func (t *Trace) String() string { return t.Render() }

func renderSpan(b *strings.Builder, s *Span, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(s.describe())
	b.WriteByte('\n')
	kids := s.Children()
	for i, c := range kids {
		if i == len(kids)-1 {
			renderSpan(b, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			renderSpan(b, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// describe renders one span line: name, kind, rows in→out next to the
// estimate, fan-out, batches, spill events, note, wall time.
func (s *Span) describe() string {
	var b strings.Builder
	b.WriteString(s.name)
	fmt.Fprintf(&b, " [%s]", s.kind)
	in, out := s.RowsIn(), s.RowsOut()
	switch {
	case in > 0 && out > 0:
		fmt.Fprintf(&b, " rows %d→%d", in, out)
	case out > 0:
		fmt.Fprintf(&b, " rows=%d", out)
	case in > 0:
		fmt.Fprintf(&b, " rows %d→0", in)
	}
	if est, ok := s.Est(); ok {
		fmt.Fprintf(&b, " est=%s", fmtEst(est))
	}
	if p := s.Shards(); p > 1 {
		fmt.Fprintf(&b, " p=%d", p)
	}
	if n := s.Batches(); n > 0 {
		fmt.Fprintf(&b, " batches=%d", n)
	}
	if ev, rl := s.Spill(); ev > 0 || rl > 0 {
		fmt.Fprintf(&b, " spill(evict=%d reload=%d)", ev, rl)
	}
	if s.note != "" {
		fmt.Fprintf(&b, " (%s)", s.note)
	}
	fmt.Fprintf(&b, " %s", fmtDur(s.Duration()))
	return b.String()
}

func fmtEst(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}

// fmtDur trims time.Duration noise: microsecond precision below a
// second, millisecond above.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0s"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
