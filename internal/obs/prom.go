package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricType classifies a Prometheus family.
type MetricType string

// The metric types the renderer emits.
const (
	TypeGauge     MetricType = "gauge"
	TypeCounter   MetricType = "counter"
	TypeHistogram MetricType = "histogram"
)

// ValidName is the Prometheus metric- and label-name grammar; every name
// the renderer emits must match it (the exposition tests enforce this).
var ValidName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// SanitizeName maps an arbitrary string onto the ValidName grammar:
// invalid characters become underscores and a leading digit is prefixed.
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Label is one name/value pair; samples carry them in a stable order.
type Label struct {
	Name  string
	Value string
}

// HistData is one histogram sample's data: per-bucket (non-cumulative)
// counts at ascending upper bounds. The renderer accumulates them into
// the cumulative _bucket series and appends the +Inf bucket.
type HistData struct {
	Bounds []float64 // upper bound (le) per bucket, ascending, +Inf excluded
	Counts []int64   // per-bucket counts, same length as Bounds
	Sum    float64
	Count  int64
}

// Sample is one labeled series of a family: a scalar for gauges and
// counters, histogram data for histograms.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistData
}

// Family is one Prometheus metric family.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// WriteProm renders the families in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers, cumulative _bucket/_sum/
// _count triples for histograms. Families render in the given order,
// samples in the given sample order, so output is deterministic for
// golden tests.
func WriteProm(w io.Writer, fams []Family) error {
	for _, f := range fams {
		name := SanitizeName(f.Name)
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if err := writeSample(w, name, f.Type, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name string, t MetricType, s Sample) error {
	switch t {
	case TypeHistogram:
		if s.Hist == nil {
			return fmt.Errorf("obs: histogram family %s sample without data", name)
		}
		var cum int64
		for i, bound := range s.Hist.Bounds {
			cum += s.Hist.Counts[i]
			if err := writeLine(w, name+"_bucket", append(append([]Label(nil), s.Labels...),
				Label{"le", formatFloat(bound)}), float64(cum)); err != nil {
				return err
			}
		}
		if err := writeLine(w, name+"_bucket", append(append([]Label(nil), s.Labels...),
			Label{"le", "+Inf"}), float64(s.Hist.Count)); err != nil {
			return err
		}
		if err := writeLine(w, name+"_sum", s.Labels, s.Hist.Sum); err != nil {
			return err
		}
		return writeLine(w, name+"_count", s.Labels, float64(s.Hist.Count))
	default:
		return writeLine(w, name, s.Labels, s.Value)
	}
}

func writeLine(w io.Writer, name string, labels []Label, v float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(SanitizeName(l.Name))
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value: integers without an exponent where
// they fit, shortest round-trip form otherwise.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Pow2Hist converts a power-of-two bucket array (bucket 0 holds zeros,
// bucket i holds values in [2^(i-1), 2^i), as internal/metrics
// histograms produce them) into HistData: upper bound 2^i − 1 per
// bucket, trailing empty buckets trimmed.
func Pow2Hist(buckets []int64, sum, count int64) *HistData {
	hi := -1
	for i, n := range buckets {
		if n != 0 {
			hi = i
		}
	}
	h := &HistData{Sum: float64(sum), Count: count}
	for i := 0; i <= hi; i++ {
		bound := float64(0)
		if i > 0 {
			// 2^i − 1: the largest integer the bucket holds. Computed with
			// math.Ldexp so i up to 64 cannot overflow integer shifts.
			bound = math.Ldexp(1, i) - 1
		}
		h.Bounds = append(h.Bounds, bound)
		h.Counts = append(h.Counts, buckets[i])
	}
	return h
}

// SortedLabelKey renders labels canonically ("a=x,b=y") for map keys in
// tests and dedup.
func SortedLabelKey(labels []Label) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Name + "=" + l.Value
	}
	return strings.Join(parts, ",")
}
