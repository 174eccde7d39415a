package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// endToEnd and perLayer are the benchmark's metric catalogue: the metrics
// untraced runs print and those traced runs print, each with its unit.
// BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"row_geomean_s", "s"},
	{"serve_qps", "1/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"learn.self_s", "s"},
	{"learn.output_queries", "count"},
	{"learn.query_symbols", "count"},
	{"learn.rounds", "count"},
	{"learn.test_words", "count"},
	{"learn.counterexamples", "count"},
	{"learn.batch_calls", "count"},
	{"learn.batch_words_mean", "words"},
	{"polca.busy_s", "s"},
	{"polca.self_s", "s"},
	{"polca.probes", "count"},
	{"polca.accesses", "count"},
	{"polca.memo_hits", "count"},
	{"polca.symbols", "count"},
	{"polca.memo_hit_ratio", "ratio"},
	{"polca.retries", "count"},
	{"polca.reprobes", "count"},
	{"cachequery.setup_s", "s"},
	{"cachequery.busy_s", "s"},
	{"cachequery.backend_s", "s"},
	{"cachequery.executed", "count"},
	{"cachequery.store_hits", "count"},
	{"cachequery.inconclusive", "count"},
	{"hw.loads", "sim-loads"},
	{"hw.sim_gcycles", "sim-Gcycles"},
	{"hw.host_ns_per_load", "ns"},
	{"experiments.identify_s", "s"},
	{"mealy.verify_s", "s"},
	{"synth.self_s", "s"},
	{"synth.candidates", "count"},
	{"daemon.server_s", "s"},
	{"http.client_s", "s"},
	{"daemon.requests", "count"},
	{"daemon.coalesced", "count"},
	{"daemon.non200", "count"},
	{"qstore.out_nodes", "count"},
	{"qstore.probe_nodes", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.untimed_s", "s"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// goStats is a runtime/metrics reading of the Go runtime's allocation and
// garbage-collection totals.
type goStats struct {
	allocBytes, gcCycles uint64
	gcPause              float64 // seconds, summed from the pause histogram
}

func readGoStats() goStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	var g goStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			g.gcPause += float64(n) * (lo + hi) / 2
		}
	}
	return g
}

// since returns the runtime totals accumulated between g and now.
func (g goStats) since() goStats {
	now := readGoStats()
	return goStats{
		allocBytes: now.allocBytes - g.allocBytes,
		gcCycles:   now.gcCycles - g.gcCycles,
		gcPause:    now.gcPause - g.gcPause,
	}
}
