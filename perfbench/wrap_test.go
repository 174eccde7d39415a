package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
	"repro/internal/policy"
)

type fakeProber struct{}

func (fakeProber) Assoc() int                     { return 2 }
func (fakeProber) InitialContent() []blocks.Block { return []blocks.Block{"A", "B"} }
func (fakeProber) Probe(context.Context, []blocks.Block) (cache.Outcome, error) {
	return cache.Hit, nil
}

type fakeConc struct{}

func (fakeConc) ConcurrentProbes() bool { return true }

type fakeBatch struct{}

func (fakeBatch) ProbeBatch(_ context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	return make([]cache.Outcome, len(qs)), nil
}

type fakeFresh struct{}

func (fakeFresh) ProbeFresh(context.Context, []blocks.Block) (cache.Outcome, error) {
	return cache.Hit, nil
}

type fakeTrace struct{}

func (fakeTrace) ProbeTrace(_ context.Context, q []blocks.Block) ([]cache.Outcome, error) {
	return make([]cache.Outcome, len(q)), nil
}

// proberExtensions reports which optional polca interfaces p implements.
func proberExtensions(p polca.Prober) [4]bool {
	_, c := p.(polca.ConcurrentProber)
	_, b := p.(polca.ProbeBatcher)
	_, f := p.(polca.FreshProber)
	_, t := p.(polca.TraceProber)
	return [4]bool{c, b, f, t}
}

func TestWrapProberForwardsExactly(t *testing.T) {
	p := fakeProber{}
	c, b, f, tr := fakeConc{}, fakeBatch{}, fakeFresh{}, fakeTrace{}
	inners := []polca.Prober{
		p,
		struct {
			fakeProber
			fakeConc
		}{p, c},
		struct {
			fakeProber
			fakeBatch
		}{p, b},
		struct {
			fakeProber
			fakeConc
			fakeBatch
		}{p, c, b},
		struct {
			fakeProber
			fakeFresh
		}{p, f},
		struct {
			fakeProber
			fakeConc
			fakeFresh
		}{p, c, f},
		struct {
			fakeProber
			fakeBatch
			fakeFresh
		}{p, b, f},
		struct {
			fakeProber
			fakeConc
			fakeBatch
			fakeFresh
		}{p, c, b, f},
		struct {
			fakeProber
			fakeTrace
		}{p, tr},
		struct {
			fakeProber
			fakeConc
			fakeTrace
		}{p, c, tr},
		struct {
			fakeProber
			fakeBatch
			fakeTrace
		}{p, b, tr},
		struct {
			fakeProber
			fakeConc
			fakeBatch
			fakeTrace
		}{p, c, b, tr},
		struct {
			fakeProber
			fakeFresh
			fakeTrace
		}{p, f, tr},
		struct {
			fakeProber
			fakeConc
			fakeFresh
			fakeTrace
		}{p, c, f, tr},
		struct {
			fakeProber
			fakeBatch
			fakeFresh
			fakeTrace
		}{p, b, f, tr},
		struct {
			fakeProber
			fakeConc
			fakeBatch
			fakeFresh
			fakeTrace
		}{p, c, b, f, tr},
	}
	seen := map[[4]bool]bool{}
	for i, inner := range inners {
		want := proberExtensions(inner)
		seen[want] = true
		tracer := newTracer()
		w, err := wrapProber(inner, tracer)
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		if got := proberExtensions(w); got != want {
			t.Errorf("combo %d: wrapper implements %v, inner %v", i, got, want)
		}
		// Every probing call is timed.
		ctx := context.Background()
		q := []blocks.Block{"A"}
		calls := 1
		w.Probe(ctx, q)
		if bp, ok := w.(polca.ProbeBatcher); ok {
			bp.ProbeBatch(ctx, [][]blocks.Block{q})
			calls++
		}
		if fp, ok := w.(polca.FreshProber); ok {
			fp.ProbeFresh(ctx, q)
			calls++
		}
		if tp, ok := w.(polca.TraceProber); ok {
			tp.ProbeTrace(ctx, q)
			calls++
		}
		if got := len(tracer.spans); got != calls {
			t.Errorf("combo %d: %d spans for %d probing calls", i, got, calls)
		}
	}
	if len(seen) != 16 {
		t.Fatalf("test covers %d of 16 interface combinations", len(seen))
	}
}

func TestWrapProberRealProbers(t *testing.T) {
	cfg := hw.Skylake()
	tgt := cachequery.Target{Level: hw.L1, Set: 0}
	opt := cachequery.DefaultBackendOptions()
	f := cachequery.NewFrontend(hw.NewCPU(cfg, 1), opt)
	rst := cachequery.FlushRefill(cfg.L1.Assoc)
	content, err := cachequery.DiscoverInitialContent(context.Background(), f, tgt, rst)
	if err != nil {
		t.Fatal(err)
	}
	rst.Content = content
	single, err := cachequery.NewProber(f, tgt, rst)
	if err != nil {
		t.Fatal(err)
	}
	fronts, err := cachequery.NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(cfg, 1) }, opt, tgt, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cachequery.NewParallelProber(fronts, tgt, rst)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []polca.Prober{single, pool} {
		w, err := wrapProber(inner, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := proberExtensions(w), proberExtensions(inner); got != want {
			t.Errorf("%T: wrapper implements %v, inner %v", inner, got, want)
		}
	}
	// The simulator's forking fast path cannot be forwarded; the wrapper
	// refuses rather than moving the oracle onto the reset-rooted path.
	if _, err := wrapProber(polca.NewSimProber(policy.MustNew("LRU", 4)), newTracer()); err == nil {
		t.Error("wrapping a forking prober succeeded")
	}
}

type fakeTeacher struct{}

func (fakeTeacher) NumInputs() int { return 2 }
func (fakeTeacher) OutputQuery(_ context.Context, w []int) ([]int, error) {
	return make([]int, len(w)), nil
}

type fakeBatchTeacher struct{ fakeTeacher }

func (fakeBatchTeacher) OutputQueryBatch(_ context.Context, ws [][]int) ([][]int, error) {
	return make([][]int, len(ws)), nil
}

type fakeHint struct{}

func (fakeHint) BatchHint() int { return 3 }

func TestWrapTeacherForwardsExactly(t *testing.T) {
	inners := []learn.Teacher{
		fakeTeacher{},
		fakeBatchTeacher{},
		struct {
			fakeTeacher
			fakeHint
		}{},
		struct {
			fakeBatchTeacher
			fakeHint
		}{},
	}
	for i, inner := range inners {
		w, _ := wrapTeacher(inner, newTracer())
		_, wantBatch := inner.(learn.BatchTeacher)
		_, gotBatch := w.(learn.BatchTeacher)
		wh, gotHint := w.(learn.BatchHinter)
		_, wantHint := inner.(learn.BatchHinter)
		if gotBatch != wantBatch || gotHint != wantHint {
			t.Errorf("teacher %d: wrapper batch=%v hint=%v, inner batch=%v hint=%v", i, gotBatch, gotHint, wantBatch, wantHint)
		}
		if gotHint && wh.BatchHint() != 3 {
			t.Errorf("teacher %d: hint %d, want 3", i, wh.BatchHint())
		}
	}
}

// TestTracedLearnMatchesUntraced learns two policies through the untraced
// pipeline and through the timing Teacher: the machines must be equivalent
// and the learner's counters identical, so the traced run measures the
// same work.
func TestTracedLearnMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"New1", 4}} {
		plain, err := core.LearnSimulatedSim(ctx, c.name, c.assoc, learnOptions, core.SnapshotOptions{}, core.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracle, _, _, err := core.NewSimOracle(c.name, c.assoc, core.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		teacher, tt := wrapTeacher(oracle, tr)
		var traced *learn.Result
		err = tr.record(withSpan(ctx, 0, 1), "learn.learn", func(ctx context.Context) error {
			traced, err = learn.Learn(ctx, teacher, learnOptions)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if eq, w := plain.Machine.Equivalent(traced.Machine); !eq {
			t.Errorf("%s-%d: traced and untraced machines differ on %v", c.name, c.assoc, w)
		}
		a, b := plain.LearnStats, traced.Stats
		a.Duration, b.Duration = 0, 0
		if a != b {
			t.Errorf("%s-%d: learner stats differ: untraced %+v, traced %+v", c.name, c.assoc, a, b)
		}
		if tt.batchCalls.Load() == 0 {
			t.Errorf("%s-%d: the learner never batched through the timing Teacher", c.name, c.assoc)
		}
		if _, _, orphans := tr.summarize(); orphans != 0 {
			t.Errorf("%s-%d: %d spans without a recorded parent", c.name, c.assoc, orphans)
		}
		// Oracle counters may legitimately differ between runs at
		// GOMAXPROCS > 1 (concurrent sessions race on the probe trie); the
		// benchmark reports whether they repeat rather than asserting it.
		if po, to := plain.OracleStats, oracle.Stats(); !reflect.DeepEqual(po, to) {
			t.Logf("%s-%d: oracle counters differ between runs: %+v vs %+v", c.name, c.assoc, po, to)
		}
	}
}
