package obs

// Exposition validity checking, shared between this package's golden
// tests and the root package's HTTP-level smoke test. Lives outside the
// _test files so package cqbound tests can import it; the TB interface
// keeps the testing package itself out of production binaries.

import (
	"bufio"
	"strconv"
	"strings"
)

// TB is the subset of *testing.T that CheckPromText reports through.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

// parsePromLine splits a sample line into name, label pairs, and value.
func parsePromLine(t TB, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, pair := range strings.Split(line[i+1:j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("bad label %q in %q", pair, line)
			}
			labels[k] = v[1 : len(v)-1]
		}
		rest = line[j+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value: %q", line)
		}
		name, rest = line[:sp], line[sp:]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return name, labels, f
}

// CheckPromText validates a rendered exposition: every family has one
// # TYPE line, every metric and label name matches the Prometheus grammar,
// and every histogram's _bucket series is cumulative (monotonically
// non-decreasing, +Inf last and equal to _count).
func CheckPromText(t TB, body string) {
	t.Helper()
	type histState struct {
		last   float64
		lastLe float64
		sawInf bool
		infVal float64
	}
	hists := map[string]*histState{}
	counts := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if typed[name] {
				t.Errorf("family %s has a second # TYPE line", name)
			}
			typed[name] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		name, labels, value := parsePromLine(t, line)
		if !ValidName.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
		for k := range labels {
			if !ValidName.MatchString(k) {
				t.Errorf("invalid label name %q in %q", k, line)
			}
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			le := labels["le"]
			key := base + "|" + SortedLabelKey(labelsWithout(labels, "le"))
			st := hists[key]
			if st == nil {
				st = &histState{last: -1, lastLe: -1e308}
				hists[key] = st
			}
			if le == "+Inf" {
				st.sawInf = true
				st.infVal = value
				if value < st.last {
					t.Errorf("%s: +Inf bucket %g below prior cumulative %g", key, value, st.last)
				}
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("%s: bad le %q", key, le)
				continue
			}
			if b <= st.lastLe {
				t.Errorf("%s: le %g not ascending after %g", key, b, st.lastLe)
			}
			if value < st.last {
				t.Errorf("%s: bucket counts not cumulative: %g after %g", key, value, st.last)
			}
			st.lastLe, st.last = b, value
		}
		if base, ok := strings.CutSuffix(name, "_count"); ok {
			counts[base+"|"+SortedLabelKey(mapLabels(labels))] = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}
	for key, st := range hists {
		if !st.sawInf {
			t.Errorf("%s: histogram without +Inf bucket", key)
			continue
		}
		base, lk, _ := strings.Cut(key, "|")
		if c, ok := counts[base+"|"+lk]; ok && c != st.infVal {
			t.Errorf("%s: +Inf bucket %g != _count %g", key, st.infVal, c)
		}
	}
}

func labelsWithout(labels map[string]string, drop string) []Label {
	out := make([]Label, 0, len(labels))
	for k, v := range labels {
		if k != drop {
			out = append(out, Label{k, v})
		}
	}
	return out
}

func mapLabels(labels map[string]string) []Label {
	out := make([]Label, 0, len(labels))
	for k, v := range labels {
		out = append(out, Label{k, v})
	}
	return out
}
