package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
	"repro/internal/policy"
)

// hwStates and hwPolicy are what the Table 4 Skylake L1 row must report.
const (
	hwStates = 128
	hwPolicy = "PLRU"
)

// skylakeL1Job returns the Skylake L1 job of the quick Table 4 list with
// its target set chosen by the seed (set 0 is the row cmd/experiments
// table4 prints; every L1 set runs the same policy).
func skylakeL1Job(seed int64) (experiments.Table4Job, error) {
	for _, j := range experiments.Table4Jobs(true) {
		if j.Model.Arch == "Skylake" && j.Level == hw.L1 {
			sets := int64(j.Model.L1.SetsPerSlice)
			j.Target.Set = int(((seed % sets) + sets) % sets)
			j.SetsNote = fmt.Sprint(j.Target.Set)
			return j, nil
		}
	}
	return experiments.Table4Job{}, fmt.Errorf("no Skylake L1 job in the Table 4 list")
}

// hwStack is the hardware pipeline core.LearnHardware builds, rebuilt here
// from the public constructors so the benchmark owns the CPUs and can put
// timing wrappers at its boundaries.
type hwStack struct {
	job        experiments.Table4Job
	opt        cachequery.BackendOptions
	pol        policy.Policy
	front      *cachequery.Frontend   // primary frontend (reset-content discovery)
	fronts     []*cachequery.Frontend // replica frontends; nil for one replica
	resets     []cachequery.Reset
	cpuMu      sync.Mutex
	cpus       []*hw.CPU
	setupLoads uint64 // simulated loads issued before the oracle's first query
}

// newHWStack provisions and calibrates the primary CPU and the replica
// pool, and discovers the first reset candidate's content: everything up to
// the oracle's first query.
func newHWStack(ctx context.Context, job experiments.Table4Job) (*hwStack, error) {
	s := &hwStack{job: job, opt: cachequery.DefaultBackendOptions()}
	var err error
	if s.pol, err = policy.New(job.Expected, job.Model.Config(job.Level).Assoc); err != nil {
		return nil, err
	}
	s.resets = core.ResetCandidatesFor(s.pol)
	s.front = cachequery.NewFrontend(s.newCPU(), s.opt)
	if _, err := s.front.Backend(job.Target); err != nil {
		return nil, err
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if s.fronts, err = cachequery.NewReplicaFrontends(s.newCPU, s.opt, job.Target, n); err != nil {
			return nil, err
		}
	}
	if err := s.discover(ctx, 0); err != nil {
		return nil, err
	}
	s.setupLoads = s.loads()
	return s, nil
}

// newCPU builds one harness-owned CPU of the job's model and seed.
func (s *hwStack) newCPU() *hw.CPU {
	cpu := hw.NewCPUSim(s.job.Model, s.job.Seed, s.job.Interpreted)
	s.cpuMu.Lock()
	s.cpus = append(s.cpus, cpu)
	s.cpuMu.Unlock()
	return cpu
}

// discover fills in reset candidate i's initial content when the candidate
// does not know it.
func (s *hwStack) discover(ctx context.Context, i int) error {
	if len(s.resets[i].Content) > 0 {
		return nil
	}
	content, err := cachequery.DiscoverInitialContent(ctx, s.front, s.job.Target, s.resets[i])
	if err != nil {
		return err
	}
	s.resets[i].Content = content
	return nil
}

// loads and cycles sum the simulated counters of every CPU the stack built.
func (s *hwStack) loads() (n uint64) {
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	for _, c := range s.cpus {
		n += c.LoadCount()
	}
	return n
}

func (s *hwStack) cycles() (n uint64) {
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	for _, c := range s.cpus {
		n += c.RDTSC()
	}
	return n
}

// frontendStats aggregates the backend counters of every frontend.
func (s *hwStack) frontendStats() cachequery.FrontendStats {
	st := s.front.Stats()
	for _, f := range s.fronts {
		st.Add(f.Stats())
	}
	return st
}

// hwLearn is the outcome of a traced hardware learn.
type hwLearn struct {
	states      int
	learnStats  learn.Stats
	oracleStats polca.Stats
	teacher     *timedTeacher
}

// learn runs the learning loop over the stack with timing wrappers at the
// Teacher and Prober boundaries, trying the reset candidates in order as
// core.LearnHardware does, and checks the machine against the installed
// policy's ground truth after the winning reset.
func (s *hwStack) learn(ctx context.Context, tr *tracer) (*hwLearn, error) {
	var lastErr error
	for i := range s.resets {
		err := tr.record(ctx, "cachequery.setup", func(ctx context.Context) error { return s.discover(ctx, i) })
		if err != nil {
			lastErr = err
			continue
		}
		rst := s.resets[i]
		var inner polca.Prober
		if s.fronts != nil {
			inner, err = cachequery.NewParallelProber(s.fronts, s.job.Target, rst)
		} else {
			inner, err = cachequery.NewProber(s.front, s.job.Target, rst)
		}
		if err != nil {
			lastErr = err
			continue
		}
		prober, err := wrapProber(inner, tr)
		if err != nil {
			return nil, err
		}
		// The options core.LearnHardware derives from RunTable4Job's
		// request: determinism re-checks every 128 queries, the pool's
		// default parallelism, the per-session (unbatched) engine.
		oracle := polca.NewOracle(prober, polca.WithDeterminismChecks(128))
		teacher, tt := wrapTeacher(oracle, tr)
		var res *learn.Result
		err = tr.record(ctx, "learn.learn", func(ctx context.Context) error {
			res, err = learn.Learn(ctx, teacher, learn.Options{Depth: 1, MaxStates: 4096})
			return err
		})
		if err != nil {
			lastErr = fmt.Errorf("reset %q: %w", rst.Name(), err)
			continue
		}
		var eq bool
		err = tr.record(ctx, "mealy.verify", func(context.Context) error {
			truth, err := core.GroundTruthAfterReset(s.pol, rst)
			if err != nil {
				return err
			}
			eq, _ = res.Machine.Equivalent(truth)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !eq {
			return nil, fmt.Errorf("learned machine differs from the installed %s after reset %q", s.pol.Name(), rst.Name())
		}
		return &hwLearn{states: res.Machine.NumStates, learnStats: res.Stats, oracleStats: oracle.Stats(), teacher: tt}, nil
	}
	return nil, fmt.Errorf("every reset candidate failed, last error: %w", lastErr)
}

// checkTable4Row counts the Table 4 row as failed unless it reports the
// installed policy with its state count and no error.
func checkTable4Row(rep *report, row experiments.Table4Row) {
	if row.Err != "" || row.States != hwStates || row.Policy != hwPolicy {
		rep.fail("Skylake L1 row: %d states, policy %q, error %q; want %d states, %s", row.States, row.Policy, row.Err, hwStates, hwPolicy)
	}
}

// runLearnHW is the learn-hw workload: the Table 4 Skylake L1 row through
// experiments.RunTable4Job. Set-up is the stack up to the oracle's first
// query, built several times.
func runLearnHW(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	job, err := skylakeL1Job(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.note("learn-hw: %s %s set %d, CPU seed %d, %d replicas", job.Model.Name, job.Level, job.Target.Set, job.Seed, runtime.GOMAXPROCS(0))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := newHWStack(ctx, job); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setups)

	row := func() (experiments.Table4Row, time.Duration) {
		settle()
		t0 := time.Now()
		rep.attempted++
		r := experiments.RunTable4Job(ctx, job, cachequery.DefaultBackendOptions())
		wall := time.Since(t0)
		checkTable4Row(rep, r)
		return r, wall
	}

	if cfg.traced {
		base, baseWall := row()
		rep.values["experiments.identify_s"] = (baseWall - base.Time).Seconds()
		tr := newTracer()
		settle()
		g := readGoStats()
		t0 := time.Now()
		ctx := withSpan(ctx, 0, 1)
		var stack *hwStack
		err := tr.record(ctx, "cachequery.setup", func(ctx context.Context) error {
			var err error
			stack, err = newHWStack(ctx, job)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		rep.attempted++
		res, err := stack.learn(ctx, tr)
		wall := time.Since(t0)
		gs := g.since()
		rep.tr = tr
		if err != nil {
			rep.fail("traced Skylake L1 learn: %v", err)
			res = &hwLearn{teacher: &timedTeacher{}}
		} else if res.states != hwStates {
			rep.fail("traced Skylake L1 learn: %d states, want %d", res.states, hwStates)
		}
		layers := summarizeTrace(rep, tr, wall, base.Time, 1)
		// RunTable4Job's row time covers set-up and learning only; compare
		// the traced pass without its ground-truth check.
		rep.values["trace.overhead_frac"] = (wall.Seconds()-layers.busy("mealy.verify"))/base.Time.Seconds() - 1
		setLearnValues(rep, layers, res.learnStats, res.oracleStats, res.teacher.batchCalls.Load(), res.teacher.batchWords.Load())
		fs := stack.frontendStats()
		loads := stack.loads() - stack.setupLoads
		rep.values["polca.self_s"] = layers.self(spanTeacher)
		rep.values["cachequery.setup_s"] = layers.busy("cachequery.setup")
		rep.values["cachequery.busy_s"] = layers.covered(spanTeacher)
		rep.values["cachequery.backend_s"] = fs.Duration.Seconds()
		rep.values["cachequery.executed"] = float64(fs.Executed)
		rep.values["cachequery.store_hits"] = float64(fs.CacheHits)
		rep.values["cachequery.inconclusive"] = float64(fs.Inconclusive)
		rep.values["hw.loads"] = float64(stack.loads())
		rep.values["hw.sim_gcycles"] = float64(stack.cycles()) / 1e9
		rep.values["hw.host_ns_per_load"] = 0
		if loads > 0 {
			rep.values["hw.host_ns_per_load"] = float64(fs.Duration.Nanoseconds()) / float64(loads)
		}
		rep.values["mealy.verify_s"] = layers.busy("mealy.verify")
		setGoValues(rep, gs)
		zero(rep)
		return rep, nil
	}

	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.seconds {
		r, wall := row()
		walls = append(walls, wall.Seconds())
		rep.note("learn-hw: row %d states, policy %s, reset %s, learn %.3fs, row %.3fs", r.States, r.Policy, r.Reset, r.Time.Seconds(), wall.Seconds())
	}
	setOpValues(rep, walls, walls)
	return rep, nil
}
