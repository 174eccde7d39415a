package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/learn"
	"repro/internal/polca"
)

// Span names of the layer boundaries the wrappers time.
const (
	spanTeacher = "polca.query" // Teacher.OutputQuery / OutputQueryBatch
	spanProbe   = "cachequery.probe"
)

// timedTeacher times every call the learner makes into its teacher (the
// Polca oracle) and counts the batch calls and their width. It forwards
// exactly the optional learn interfaces of the teacher it wraps — see
// wrapTeacher — so the learner takes the same dispatch path traced and
// untraced.
type timedTeacher struct {
	inner      learn.Teacher
	tr         *tracer
	batchCalls atomic.Int64
	batchWords atomic.Int64
}

func (t *timedTeacher) NumInputs() int { return t.inner.NumInputs() }

func (t *timedTeacher) OutputQuery(ctx context.Context, word []int) (out []int, err error) {
	err = t.tr.record(ctx, spanTeacher, func(ctx context.Context) error {
		out, err = t.inner.OutputQuery(ctx, word)
		return err
	})
	return out, err
}

// teacherBatch forwards learn.BatchTeacher.
type teacherBatch struct {
	t     *timedTeacher
	inner learn.BatchTeacher
}

func (b teacherBatch) OutputQueryBatch(ctx context.Context, words [][]int) (outs [][]int, err error) {
	b.t.batchCalls.Add(1)
	b.t.batchWords.Add(int64(len(words)))
	err = b.t.tr.record(ctx, spanTeacher, func(ctx context.Context) error {
		outs, err = b.inner.OutputQueryBatch(ctx, words)
		return err
	})
	return outs, err
}

// wrapTeacher returns a timing Teacher over inner that implements
// learn.BatchTeacher and learn.BatchHinter exactly when inner does.
func wrapTeacher(inner learn.Teacher, tr *tracer) (learn.Teacher, *timedTeacher) {
	t := &timedTeacher{inner: inner, tr: tr}
	bt, isBatch := inner.(learn.BatchTeacher)
	bh, isHint := inner.(learn.BatchHinter)
	switch {
	case isBatch && isHint:
		return struct {
			*timedTeacher
			teacherBatch
			learn.BatchHinter
		}{t, teacherBatch{t, bt}, bh}, t
	case isBatch:
		return struct {
			*timedTeacher
			teacherBatch
		}{t, teacherBatch{t, bt}}, t
	case isHint:
		return struct {
			*timedTeacher
			learn.BatchHinter
		}{t, bh}, t
	}
	return t, t
}

// timedProber times every call the oracle makes into its prober (the
// CacheQuery replica pool on the hardware path). It forwards exactly the
// optional polca interfaces of the prober it wraps — see wrapProber.
type timedProber struct {
	inner polca.Prober
	tr    *tracer
}

func (p *timedProber) Assoc() int                     { return p.inner.Assoc() }
func (p *timedProber) InitialContent() []blocks.Block { return p.inner.InitialContent() }

func (p *timedProber) Probe(ctx context.Context, q []blocks.Block) (oc cache.Outcome, err error) {
	err = p.tr.record(ctx, spanProbe, func(ctx context.Context) error {
		oc, err = p.inner.Probe(ctx, q)
		return err
	})
	return oc, err
}

// proberConcurrent forwards polca.ConcurrentProber (a property query, not
// timed).
type proberConcurrent struct{ inner polca.ConcurrentProber }

func (c proberConcurrent) ConcurrentProbes() bool { return c.inner.ConcurrentProbes() }

// proberBatch forwards polca.ProbeBatcher.
type proberBatch struct {
	tr    *tracer
	inner polca.ProbeBatcher
}

func (b proberBatch) ProbeBatch(ctx context.Context, qs [][]blocks.Block) (ocs []cache.Outcome, err error) {
	err = b.tr.record(ctx, spanProbe, func(ctx context.Context) error {
		ocs, err = b.inner.ProbeBatch(ctx, qs)
		return err
	})
	return ocs, err
}

// proberFresh forwards polca.FreshProber.
type proberFresh struct {
	tr    *tracer
	inner polca.FreshProber
}

func (f proberFresh) ProbeFresh(ctx context.Context, q []blocks.Block) (oc cache.Outcome, err error) {
	err = f.tr.record(ctx, spanProbe, func(ctx context.Context) error {
		oc, err = f.inner.ProbeFresh(ctx, q)
		return err
	})
	return oc, err
}

// proberTrace forwards polca.TraceProber.
type proberTrace struct {
	tr    *tracer
	inner polca.TraceProber
}

func (t proberTrace) ProbeTrace(ctx context.Context, q []blocks.Block) (ocs []cache.Outcome, err error) {
	err = t.tr.record(ctx, spanProbe, func(ctx context.Context) error {
		ocs, err = t.inner.ProbeTrace(ctx, q)
		return err
	})
	return ocs, err
}

// wrapProber returns a timing Prober over inner that implements
// polca.ConcurrentProber, ProbeBatcher, FreshProber and TraceProber exactly
// when inner does. Probers with any other optional extension the oracle
// looks for (the forking fast path, fleet width) are refused: hiding one
// would silently move the traced run onto a different oracle path.
func wrapProber(inner polca.Prober, tr *tracer) (polca.Prober, error) {
	if _, ok := inner.(polca.ForkingProber); ok {
		return nil, fmt.Errorf("timing prober: %T forks sessions; wrapping it would hide the fast path", inner)
	}
	if _, ok := inner.(polca.FleetWidther); ok {
		return nil, fmt.Errorf("timing prober: %T reports a fleet width; wrapping it would hide it", inner)
	}
	p := &timedProber{inner: inner, tr: tr}
	cp, isConc := inner.(polca.ConcurrentProber)
	bp, isBatch := inner.(polca.ProbeBatcher)
	fp, isFresh := inner.(polca.FreshProber)
	tp, isTrace := inner.(polca.TraceProber)
	c, b, f, t := proberConcurrent{cp}, proberBatch{tr, bp}, proberFresh{tr, fp}, proberTrace{tr, tp}
	mask := 0
	for i, has := range []bool{isConc, isBatch, isFresh, isTrace} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0b0000:
		return p, nil
	case 0b0001:
		return struct {
			*timedProber
			proberConcurrent
		}{p, c}, nil
	case 0b0010:
		return struct {
			*timedProber
			proberBatch
		}{p, b}, nil
	case 0b0011:
		return struct {
			*timedProber
			proberConcurrent
			proberBatch
		}{p, c, b}, nil
	case 0b0100:
		return struct {
			*timedProber
			proberFresh
		}{p, f}, nil
	case 0b0101:
		return struct {
			*timedProber
			proberConcurrent
			proberFresh
		}{p, c, f}, nil
	case 0b0110:
		return struct {
			*timedProber
			proberBatch
			proberFresh
		}{p, b, f}, nil
	case 0b0111:
		return struct {
			*timedProber
			proberConcurrent
			proberBatch
			proberFresh
		}{p, c, b, f}, nil
	case 0b1000:
		return struct {
			*timedProber
			proberTrace
		}{p, t}, nil
	case 0b1001:
		return struct {
			*timedProber
			proberConcurrent
			proberTrace
		}{p, c, t}, nil
	case 0b1010:
		return struct {
			*timedProber
			proberBatch
			proberTrace
		}{p, b, t}, nil
	case 0b1011:
		return struct {
			*timedProber
			proberConcurrent
			proberBatch
			proberTrace
		}{p, c, b, t}, nil
	case 0b1100:
		return struct {
			*timedProber
			proberFresh
			proberTrace
		}{p, f, t}, nil
	case 0b1101:
		return struct {
			*timedProber
			proberConcurrent
			proberFresh
			proberTrace
		}{p, c, f, t}, nil
	case 0b1110:
		return struct {
			*timedProber
			proberBatch
			proberFresh
			proberTrace
		}{p, b, f, t}, nil
	default:
		return struct {
			*timedProber
			proberConcurrent
			proberBatch
			proberFresh
			proberTrace
		}{p, c, b, f, t}, nil
	}
}
