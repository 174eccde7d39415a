package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/synth"
)

// table2Rows are the rows of the repository's BenchmarkTable2: one per
// policy of Table 2, at the associativity the paper's timing comparisons
// use.
var table2Rows = []simRow{
	{name: "FIFO", assoc: 16}, {name: "LRU", assoc: 4}, {name: "PLRU", assoc: 8},
	{name: "MRU", assoc: 8}, {name: "LIP", assoc: 4}, {name: "SRRIP-HP", assoc: 4},
	{name: "SRRIP-FP", assoc: 4}, {name: "New1", assoc: 4}, {name: "New2", assoc: 4},
}

// synthAssoc is the associativity of Table 5: rows at it are explained with
// synth.Synthesize after learning, larger ones are not (the rule search
// grows with the learned machine; FIFO-16 went past 7 GB).
const synthAssoc = 4

// learnOptions are the paper's learner settings (L*, Wp-method, k = 1).
var learnOptions = learn.Options{Depth: 1}

// simRow is one Table 2 row with its ground truth.
type simRow struct {
	name  string
	assoc int
	truth *mealy.Machine
}

// simTotals accumulates the counters of the traced rows.
type simTotals struct {
	learn              learn.Stats
	oracle             polca.Stats
	batchCalls, words  int64
	candidates         int
	outNodes, prbNodes int
}

// learnSimRows returns the Table 2 rows with their ground-truth machines
// extracted from the installed policies.
func learnSimRows() ([]simRow, error) {
	rows := append([]simRow(nil), table2Rows...)
	for i := range rows {
		pol, err := policy.New(rows[i].name, rows[i].assoc)
		if err != nil {
			return nil, err
		}
		if rows[i].truth, err = mealy.FromPolicy(pol, 0); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// learnSimRow learns one row on the default oracle path, checks the machine
// against the ground truth and, at the Table 5 associativity, explains the
// learned machine. With a tracer it builds the oracle itself and wraps it in
// a timing Teacher, exactly as core.LearnSimulatedSim composes it.
func learnSimRow(ctx context.Context, r simRow, synthSeed int64, tr *tracer, tot *simTotals) error {
	var m *mealy.Machine
	if tr == nil {
		res, err := core.LearnSimulatedSim(ctx, r.name, r.assoc, learnOptions, core.SnapshotOptions{}, core.SimOptions{})
		if err != nil {
			return err
		}
		m = res.Machine
	} else {
		oracle, _, _, err := core.NewSimOracle(r.name, r.assoc, core.SimOptions{})
		if err != nil {
			return err
		}
		teacher, tt := wrapTeacher(oracle, tr)
		var res *learn.Result
		err = tr.record(ctx, "learn.learn", func(ctx context.Context) error {
			res, err = learn.Learn(ctx, teacher, learnOptions)
			return err
		})
		if err != nil {
			return err
		}
		m = res.Machine
		addLearnStats(&tot.learn, res.Stats)
		addOracleStats(&tot.oracle, oracle.Stats())
		tot.batchCalls += tt.batchCalls.Load()
		tot.words += tt.batchWords.Load()
		out, prb := oracle.StoreFootprint()
		tot.outNodes += out
		tot.prbNodes += prb
	}
	var eq bool
	tr.record(ctx, "mealy.verify", func(context.Context) error {
		eq, _ = m.Equivalent(r.truth)
		return nil
	})
	if !eq {
		return fmt.Errorf("learned machine (%d states) differs from the ground truth (%d states)", m.NumStates, r.truth.NumStates)
	}
	if r.assoc != synthAssoc {
		return nil
	}
	var res *synth.Result
	err := tr.record(ctx, "synth.synthesize", func(context.Context) error {
		var err error
		res, err = synth.Synthesize(m, synth.Options{Seed: synthSeed})
		return err
	})
	if err != nil {
		if errors.Is(err, synth.ErrNoProgram) {
			return fmt.Errorf("no rule program explains the learned machine; Table 5 explains %s-%d", r.name, r.assoc)
		}
		return err
	}
	if tot != nil {
		tot.candidates += res.Candidates
	}
	return nil
}

// runLearnSim is the learn-sim workload: the nine Table 2 rows, serially,
// each verified and the assoc-4 ones explained with the seed driving the
// synthesis witness traces. Set-up is the ground-truth
// extraction the checks use.
func runLearnSim(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var rows []simRow
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if rows, err = learnSimRows(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setups)
	rep.note("learn-sim: %d Table 2 rows; the seed %d drives the synthesis witnesses", len(rows), cfg.seed)

	// pass runs every row once; its wall time is the sum of the row times,
	// leaving out the collections between rows.
	pass := func(tr *tracer, tot *simTotals) (wall time.Duration, rowTimes []float64) {
		for i, r := range rows {
			settle()
			t0 := time.Now()
			rep.attempted++
			err := learnSimRow(withSpan(ctx, 0, int64(i+1)), r, cfg.seed, tr, tot)
			d := time.Since(t0)
			wall += d
			rowTimes = append(rowTimes, d.Seconds())
			if err != nil {
				rep.fail("%s-%d: %v", r.name, r.assoc, err)
			}
		}
		return wall, rowTimes
	}

	if cfg.traced {
		base, _ := pass(nil, nil)
		tr := newTracer()
		tot := &simTotals{}
		g := readGoStats()
		wall, _ := pass(tr, tot)
		gs := g.since()
		rep.tr = tr
		layers := summarizeTrace(rep, tr, wall, base, 1)
		setLearnValues(rep, layers, tot.learn, tot.oracle, tot.batchCalls, tot.words)
		rep.values["polca.self_s"] = layers.self("polca.query")
		rep.values["mealy.verify_s"] = layers.busy("mealy.verify")
		rep.values["synth.self_s"] = layers.self("synth.synthesize")
		rep.values["synth.candidates"] = float64(tot.candidates)
		rep.values["qstore.out_nodes"] = float64(tot.outNodes)
		rep.values["qstore.probe_nodes"] = float64(tot.prbNodes)
		setGoValues(rep, gs)
		zero(rep)
		return rep, nil
	}

	var walls, rowTimes []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.seconds {
		wall, rt := pass(nil, nil)
		walls = append(walls, wall.Seconds())
		rowTimes = append(rowTimes, rt...)
	}
	setOpValues(rep, walls, rowTimes)
	rep.note("learn-sim: %d passes, %d row samples", len(walls), len(rowTimes))
	return rep, nil
}
