package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one operation (a Table 2 row, the Table 4 row, or one
// daemon request) share op; parent is the span that caused this one (0 for
// a root).
type span struct {
	id, parent int64
	op         int64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps the spans of a traced run in memory; writeTSV dumps them at
// the end. It is safe for concurrent use: the replica pool probes on
// several goroutines at once.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open allocates a span id and returns it with the start time.
func (t *tracer) open() (id, start int64) { return t.ids.Add(1), t.now() }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times fn as a span named name under the span carried by ctx, and
// hands fn a context carrying the new span as parent of its children. On a
// nil tracer it just calls fn, so traced and untraced runs share code.
func (t *tracer) record(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	parent, op := spanFrom(ctx)
	id, start := t.open()
	err := fn(withSpan(ctx, id, op))
	t.add(span{id: id, parent: parent, op: op, name: name, start: start, end: t.now()})
	return err
}

type spanKey struct{}

type spanRef struct{ id, op int64 }

// withSpan returns ctx carrying span id (of operation op) as the parent of
// spans opened below it.
func withSpan(ctx context.Context, id, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

// spanFrom returns the parent span and operation carried by ctx (zeros for
// none).
func spanFrom(ctx context.Context) (parent, op int64) {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r.id, r.op
	}
	return 0, 0
}

// layerTimes aggregates the spans per name: busy is the summed duration,
// self the duration minus the part of the span's interval its children
// cover (children running concurrently are merged, not summed), and
// covered the union of the span's children clipped to the span.
type layerTimes struct {
	count               int
	busy, self, covered time.Duration
}

// summarize computes layerTimes per span name, the time by which sibling
// spans overlapped each other (concurrent probes under one oracle call),
// and the number of spans whose parent was never recorded.
func (t *tracer) summarize() (map[string]*layerTimes, time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.id] = i
	}
	children := make(map[int64][][2]int64)
	var overlap time.Duration
	orphans := 0
	for _, s := range t.spans {
		if s.parent == 0 {
			continue
		}
		if _, ok := byID[s.parent]; !ok {
			orphans++
			continue
		}
		children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
	}
	out := make(map[string]*layerTimes)
	for _, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		dur := s.end - s.start
		cov := covered(children[s.id], s.start, s.end)
		lt.count++
		lt.busy += time.Duration(dur)
		lt.covered += time.Duration(cov)
		lt.self += time.Duration(dur - cov)
		for _, c := range children[s.id] {
			overlap += time.Duration(c[1] - c[0])
		}
		overlap -= time.Duration(cov)
	}
	return out, overlap, orphans
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// writeTSV writes every span, one per line: id, parent, op, name, start and
// end in nanoseconds since the tracer's epoch.
func (t *tracer) writeTSV(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
