// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the CacheQuery/Polca pipeline per invocation, checks every
// output, and prints the workload's metrics, ending with one JSON line:
//
//	perfbench --workload learn-sim|learn-hw|polcad-serve --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) repeat the workload with timing wrappers at the layer
// boundaries and report the per-layer metrics; their spans and counters
// are written under .bench_build/trace. perfbench --compare FILE... reports
// which counters of several traced runs repeated exactly. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// traceDir receives the spans and counters of traced runs, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// config is what a workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// report is a workload's outcome: operations attempted and failed, metric
// values by name, and context lines printed ahead of the metrics.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	tr                *tracer
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.note("FAILED: "+format, args...)
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"learn-sim":    runLearnSim,
	"learn-hw":     runLearnHW,
	"polcad-serve": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: learn-sim, learn-hw or polcad-serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 10, "measure for at least this many seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	compare := flag.Bool("compare", false, "compare the counters of the traced-run files given as arguments")
	flag.Parse()
	if *compare {
		if err := compareCounters(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload learn-sim|learn-hw|polcad-serve, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *trace == 1}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*workload, *seed, *secs, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		if err := writeTrace(*workload, cfg.seed, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *workload, d.name)
			os.Exit(1)
		}
		fmt.Printf("  %-26s %16.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricOut{v, d.unit}
	}
	fmt.Printf("  %-26s %16.6f ratio (%d of %d operations failed)\n", "failed_frac",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeTrace stores a traced run's spans (overwriting the previous run of
// the same workload and seed) and its per-layer values (kept per run, for
// --compare).
func writeTrace(workload string, seed int64, rep *report) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := rep.tr.writeTSV(base + ".spans.tsv"); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep.values, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s-%d.layers.json", base, time.Now().UnixNano())
	rep.note("trace: spans in %s.spans.tsv, per-layer values in %s", base, path)
	return os.WriteFile(path, buf, 0o644)
}

// compareCounters reads the per-layer files of several traced runs and
// reports, for every count metric the workload exercises, whether it
// repeated exactly.
func compareCounters(paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("--compare needs at least two .layers.json files")
	}
	runs := make([]map[string]float64, len(paths))
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, &runs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	var names []string
	for _, d := range perLayer {
		if d.unit == "count" || d.unit == "sim-loads" || d.unit == "sim-Gcycles" {
			names = append(names, d.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range runs {
			lo, hi = math.Min(lo, r[n]), math.Max(hi, r[n])
		}
		if lo == 0 && hi == 0 {
			continue // the workload does not exercise this layer
		}
		verdict := "repeats exactly"
		if lo != hi {
			verdict = fmt.Sprintf("varies (%s .. %s)", strconv.FormatFloat(lo, 'f', -1, 64), strconv.FormatFloat(hi, 'f', -1, 64))
		}
		fmt.Printf("%-26s %s over %d runs\n", n, verdict, len(runs))
	}
	return nil
}
