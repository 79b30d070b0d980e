// Command cqload replays a mixed query workload against the cqserve HTTP
// front-end at configurable concurrency and prints the serving trajectory:
// throughput, P50/P99 tail latency, admission rejects, and peak RSS per
// concurrency level. It is the overload sweep (c well above the core
// count) and the observability-overhead gate; the repository benchmark
// (bench/, workload serve-mix) measures the same mix closed-loop at a few
// clients.
//
// The mix models a read-heavy graph service: key-anchored point lookups
// (40%), star and path joins (30%), the cyclic triangle whose AGM bound
// makes it the admission controller's main customer (10%), a Zipf-skewed
// two-hop join (10%), and concurrent ingest batches that advance the
// epoch and invalidate the result cache (10%).
//
// By default cqload starts an in-process server on a loopback port so
// peak RSS covers client and server together and -race smokes the whole
// stack (CI runs exactly that); -addr points it at an external cqserve
// instead, where RSS then covers only the client side.
//
// -obsbench additionally measures observability overhead: a second
// in-process server over the same engine with the layer disabled, driven
// through alternating rounds, medians compared. -obsgate fails the run
// when the overhead fraction exceeds it — the CI regression gate.
//
// Usage:
//
//	cqload [-requests N] [-concurrency 1,8,64] [-edges N] [-universe N]
//	       [-shards N] [-membudget BYTES] [-admission BYTES] [-queue N]
//	       [-cache N] [-seed N] [-addr host:port]
//	       [-obsbench] [-obsgate FRAC]
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	cqbound "cqbound"
)

// LoadLevelResult is one concurrency level's measurement.
type LoadLevelResult struct {
	Concurrency int
	// Succeeded requests returned 200, Rejected 429 (admission shedding),
	// Errors anything else.
	Succeeded int
	Rejected  int
	Errors    int
	// Throughput counts succeeded requests per second of the level's wall
	// clock.
	Throughput float64
	// P50Ns / P99Ns are client-side latency quantiles over succeeded
	// requests (exact, from the sorted sample).
	P50Ns int64
	P99Ns int64
	// PeakRSSBytes is the process high-water mark after the level —
	// monotone across levels, so each reading is "peak so far". Always
	// bytes: sourced from VmHWM (kibibytes, shifted) on Linux and from
	// getrusage ru_maxrss elsewhere, whose native unit differs per OS
	// (KiB on Linux, bytes on Darwin) and is normalized before recording.
	PeakRSSBytes int64
	// CacheHits counts responses served from the (query, epoch) result
	// cache; Commits counts ingest requests that advanced the epoch.
	CacheHits int
	Commits   int
}

// ObsOverheadResult compares the serving path with and without the
// observability layer (correlation middleware, rolling windows,
// calibration recording): alternating measurement rounds against two
// servers sharing one engine, medians compared. Overhead is the fraction
// of throughput the observed server gives up ((off − on) / off; negative
// means noise favored the observed side).
type ObsOverheadResult struct {
	Concurrency   int
	OnThroughput  float64
	OffThroughput float64
	Overhead      float64
}

func main() {
	requests := flag.Int("requests", 1000, "requests per concurrency level")
	concurrency := flag.String("concurrency", "1,8,64", "comma-separated concurrency levels")
	edges := flag.Int("edges", 2000, "edges per base relation")
	universe := flag.Int("universe", 200, "node universe size")
	shards := flag.Int("shards", 0, "partition count for the in-process engine (0 = GOMAXPROCS)")
	membudget := flag.Int64("membudget", 64<<20, "in-process engine memory budget in bytes")
	admission := flag.Int64("admission", 8<<20, "admission budget in bytes")
	queue := flag.Int("queue", 16, "admission queue depth")
	cache := flag.Int("cache", 256, "result cache entries (0 disables)")
	seed := flag.Int64("seed", 20260807, "workload RNG seed")
	addr := flag.String("addr", "", "target an external cqserve at host:port instead of in-process")
	obsBench := flag.Bool("obsbench", false, "measure observability overhead (obs-on vs obs-off servers over one engine)")
	obsGate := flag.Float64("obsgate", 0, "fail (exit 1) when observability overhead exceeds this fraction (0 disables)")
	flag.Parse()

	levels, err := parseLevels(*concurrency)
	if err != nil {
		fatal(err)
	}
	if *obsBench && *addr != "" {
		fatal(fmt.Errorf("-obsbench needs the in-process server pair; drop -addr"))
	}

	base := *addr
	var offBase string
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		eng := cqbound.NewEngine(
			cqbound.WithSharding(1024, *shards),
			cqbound.WithMemoryBudget(*membudget),
		)
		defer eng.Close()
		srv := cqbound.NewServer(eng,
			cqbound.WithAdmissionBudget(*admission),
			cqbound.WithAdmissionQueue(*queue),
			cqbound.WithResultCache(*cache),
		)
		defer srv.Close()
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		base = ln.Addr().String()

		if *obsBench {
			// A second front-end over the same engine, observability off:
			// same data, same plans, same admission config — the only
			// difference is the layer under measurement.
			offLn, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			offSrv := cqbound.NewServer(eng,
				cqbound.WithAdmissionBudget(*admission),
				cqbound.WithAdmissionQueue(*queue),
				cqbound.WithResultCache(*cache),
				cqbound.WithoutObservability(),
			)
			defer offSrv.Close()
			offHs := &http.Server{Handler: offSrv}
			go offHs.Serve(offLn)
			defer offHs.Close()
			offBase = offLn.Addr().String()
		}
	}

	fmt.Printf("addr=%s gomaxprocs=%d budget=%d admission=%d edges=%d\n",
		base, runtime.GOMAXPROCS(0), *membudget, *admission, *edges)
	h := newHarness("http://"+base, *seed, *edges, *universe)
	if err := h.load(); err != nil {
		fatal(err)
	}
	for _, c := range levels {
		l, err := h.run(c, *requests)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  c=%-3d %6.0f req/s  p50=%-10s p99=%-10s ok=%d rejected=%d errors=%d hits=%d commits=%d rss=%dMiB\n",
			l.Concurrency, l.Throughput, fmtNs(l.P50Ns), fmtNs(l.P99Ns),
			l.Succeeded, l.Rejected, l.Errors, l.CacheHits, l.Commits, l.PeakRSSBytes>>20)
	}

	if *obsBench {
		// The off-side harness shares the engine (and thus the dataset the
		// on-side already loaded) but drives its own front-end.
		offH := newHarness("http://"+offBase, *seed+1, *edges, *universe)
		ob, err := runObsBench(h, offH, levels[len(levels)-1], *requests)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  obs overhead c=%-3d on=%.0f req/s off=%.0f req/s overhead=%+.1f%%\n",
			ob.Concurrency, ob.OnThroughput, ob.OffThroughput, 100*ob.Overhead)
		if *obsGate > 0 && ob.Overhead > *obsGate {
			fmt.Fprintf(os.Stderr, "cqload: observability overhead %.1f%% exceeds gate %.1f%%\n",
				100*ob.Overhead, 100**obsGate)
			os.Exit(1)
		}
	}
}

// runObsBench interleaves measurement rounds against the observed and
// unobserved front-ends (one warmup round each, then `rounds` measured
// pairs) and compares median throughputs. Interleaving keeps slow drift
// (cache warmth, epoch advancement from the mix's ingest share, GC
// pressure) from landing on one side only.
func runObsBench(on, off *harness, concurrency, requests int) (*ObsOverheadResult, error) {
	const rounds = 3
	if _, err := on.run(concurrency, requests); err != nil {
		return nil, err
	}
	if _, err := off.run(concurrency, requests); err != nil {
		return nil, err
	}
	var onT, offT []float64
	for i := 0; i < rounds; i++ {
		r, err := on.run(concurrency, requests)
		if err != nil {
			return nil, err
		}
		onT = append(onT, r.Throughput)
		if r, err = off.run(concurrency, requests); err != nil {
			return nil, err
		}
		offT = append(offT, r.Throughput)
	}
	res := &ObsOverheadResult{
		Concurrency:   concurrency,
		OnThroughput:  median(onT),
		OffThroughput: median(offT),
	}
	if res.OffThroughput > 0 {
		res.Overhead = (res.OffThroughput - res.OnThroughput) / res.OffThroughput
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cqload: bad concurrency level %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	}
}

// peakRSS reads the process high-water mark: /proc/self/status (VmHWM,
// kibibytes) where procfs exists, getrusage(2) ru_maxrss elsewhere
// (kibibytes on Linux, bytes on Darwin — rusageRSS normalizes both to
// bytes); 0 where neither source is available.
func peakRSS() int64 {
	if rss := procRSS(); rss > 0 {
		return rss
	}
	return rusageRSS()
}

// procRSS parses VmHWM out of /proc/self/status; 0 without procfs.
func procRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cqload:", err)
	os.Exit(1)
}
