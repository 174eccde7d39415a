package main

import (
	"runtime"
	"time"

	"repro/internal/learn"
	"repro/internal/polca"
)

// layerSummary is a traced run's span times by span name.
type layerSummary map[string]*layerTimes

func (l layerSummary) get(name string) layerTimes {
	if lt := l[name]; lt != nil {
		return *lt
	}
	return layerTimes{}
}

func (l layerSummary) self(name string) float64    { return l.get(name).self.Seconds() }
func (l layerSummary) busy(name string) float64    { return l.get(name).busy.Seconds() }
func (l layerSummary) covered(name string) float64 { return l.get(name).covered.Seconds() }

// summarizeTrace computes the span times of a traced pass and the trace's
// own metrics. traced is the traced pass's wall time and untraced that of
// the same work without tracing. lanes is the number of serial timelines
// the pass ran (its closed-loop clients): the untimed remainder is the part
// of lanes × traced that no span's self time accounts for, counting the
// time concurrent sibling spans overlap once.
func summarizeTrace(rep *report, tr *tracer, traced, untraced time.Duration, lanes int) layerSummary {
	sum, overlap, orphans := tr.summarize()
	self := -overlap
	spans := 0
	for _, lt := range sum {
		self += lt.self
		spans += lt.count
	}
	rep.values["trace.wall_s"] = traced.Seconds()
	rep.values["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	rep.values["trace.untimed_s"] = (time.Duration(lanes)*traced - self).Seconds()
	rep.values["trace.spans"] = float64(spans)
	if orphans > 0 {
		rep.note("trace: %d spans have no recorded parent", orphans)
	}
	rep.note("trace: traced pass %.3fs, untraced %.3fs, self times account for all but %.3fs",
		traced.Seconds(), untraced.Seconds(), rep.values["trace.untimed_s"])
	return layerSummary(sum)
}

// setLearnValues fills the learn and polca per-layer metrics from the
// teacher spans and the learner's and oracle's counters.
func setLearnValues(rep *report, l layerSummary, ls learn.Stats, os polca.Stats, batchCalls, batchWords int64) {
	v := rep.values
	v["learn.self_s"] = l.self("learn.learn")
	v["learn.output_queries"] = float64(ls.OutputQueries)
	v["learn.query_symbols"] = float64(ls.QuerySymbols)
	v["learn.rounds"] = float64(ls.Rounds)
	v["learn.test_words"] = float64(ls.TestWords)
	v["learn.counterexamples"] = float64(ls.Counterexample)
	v["learn.batch_calls"] = float64(batchCalls)
	v["learn.batch_words_mean"] = 0
	if batchCalls > 0 {
		v["learn.batch_words_mean"] = float64(batchWords) / float64(batchCalls)
	}
	v["polca.busy_s"] = l.busy(spanTeacher)
	setOracleValues(rep, os)
}

// setOracleValues fills the polca counters.
func setOracleValues(rep *report, os polca.Stats) {
	v := rep.values
	v["polca.probes"] = float64(os.Probes)
	v["polca.accesses"] = float64(os.Accesses)
	v["polca.memo_hits"] = float64(os.MemoHits)
	v["polca.symbols"] = float64(os.Symbols)
	v["polca.memo_hit_ratio"] = 0
	if os.Symbols > 0 {
		v["polca.memo_hit_ratio"] = float64(os.MemoHits) / float64(os.Symbols)
	}
	v["polca.retries"] = float64(os.Retries)
	v["polca.reprobes"] = float64(os.Reprobes)
}

// setGoValues fills the Go runtime metrics of a traced pass.
func setGoValues(rep *report, g goStats) {
	rep.values["go.alloc_mb"] = float64(g.allocBytes) / (1 << 20)
	rep.values["go.gc_cycles"] = float64(g.gcCycles)
	rep.values["go.gc_pause_s"] = g.gcPause
}

// zero reports 0 for every per-layer metric of a layer the workload does
// not exercise.
func zero(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.values[d.name]; !ok {
			rep.values[d.name] = 0
		}
	}
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Set-up takes milliseconds, so a single reading is mostly noise.
const setupReps = 9

// settle collects the garbage earlier operations left before the next timed
// one starts, so an operation's time does not depend on what ran before it.
func settle() { runtime.GC() }

// setOpValues fills the end-to-end metrics of a workload that ran passes of
// operations: wall_s is the median pass, serve_qps operations per second,
// and the rest come from per-operation wall times (in seconds).
func setOpValues(rep *report, passWalls, opTimes []float64) {
	var total float64
	for _, w := range passWalls {
		total += w
	}
	rep.values["wall_s"] = median(passWalls)
	rep.values["row_geomean_s"] = geomean(opTimes)
	rep.values["serve_qps"] = float64(len(opTimes)) / total
	rep.values["serve_p50_ms"] = 1000 * quantile(opTimes, 0.5)
	rep.values["serve_p99_ms"] = 1000 * quantile(opTimes, 0.99)
	rep.values["peak_rss_mb"] = peakRSSMB()
}

func addLearnStats(dst *learn.Stats, s learn.Stats) {
	dst.OutputQueries += s.OutputQueries
	dst.QuerySymbols += s.QuerySymbols
	dst.Rounds += s.Rounds
	dst.TestWords += s.TestWords
	dst.Counterexample += s.Counterexample
	dst.Duration += s.Duration
}

func addOracleStats(dst *polca.Stats, s polca.Stats) {
	dst.OutputQueries += s.OutputQueries
	dst.Symbols += s.Symbols
	dst.Probes += s.Probes
	dst.MemoHits += s.MemoHits
	dst.Accesses += s.Accesses
	dst.Retries += s.Retries
	dst.Disagreements += s.Disagreements
	dst.Reprobes += s.Reprobes
}
