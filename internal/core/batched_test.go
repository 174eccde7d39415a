package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cachequery"
	"repro/internal/hw"
	"repro/internal/learn"
)

// TestLearnSimulatedBatchedMatchesSerial is the end-to-end equivalence
// check for the batched SoA query engine at the pipeline level: the full
// table2-style learning run — L* rounds plus the conformance sweep — on
// the compiled kernel (the batched engine) must produce byte-identical
// machine JSON and bit-identical oracle counters to the per-session path
// an interpreted simulator takes. Both legs pin the learner's prefetch
// width, so the two oracles see the exact same chunked query stream.
func TestLearnSimulatedBatchedMatchesSerial(t *testing.T) {
	for _, name := range []string{"MRU", "SRRIP-HP", "New1"} {
		t.Run(name, func(t *testing.T) {
			opt := learn.Options{Depth: 1, BatchSize: 32}
			serial, err := LearnSimulatedSim(context.Background(), name, 4, opt, SnapshotOptions{}, SimOptions{Interpreted: true})
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			batched, err := LearnSimulatedSim(context.Background(), name, 4, opt, SnapshotOptions{}, SimOptions{})
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			js, err := json.Marshal(serial.Machine)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(batched.Machine)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, jb) {
				t.Error("batched run produced different machine JSON")
			}
			if batched.OracleStats != serial.OracleStats {
				t.Errorf("oracle stats diverged: batched %+v, serial %+v",
					batched.OracleStats, serial.OracleStats)
			}
		})
	}
}

// TestLearnSimulatedBatchedInterpretedFallsBack: an interpreted simulator
// has no kernel table for the batched engine to run on; the oracle must
// keep the per-session path and still learn the right machine.
func TestLearnSimulatedBatchedInterpretedFallsBack(t *testing.T) {
	res, err := LearnSimulatedSim(context.Background(), "MRU", 4, learn.Options{Depth: 1}, SnapshotOptions{},
		SimOptions{Interpreted: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 14 {
		t.Errorf("learned %d states, want 14 (MRU-4)", res.Machine.NumStates)
	}
}

// TestLearnHardwareBatched runs the hardware pipeline over a replica pool,
// where each miss's eviction probes go out as one grouped call, and
// requires the same machine as the serial single-frontend pipeline.
func TestLearnHardwareBatched(t *testing.T) {
	request := func(replicas int) HardwareRequest {
		return HardwareRequest{
			CPU:              hw.NewCPU(testCPU(), 9),
			NewCPU:           func() *hw.CPU { return hw.NewCPU(testCPU(), 9) },
			Replicas:         replicas,
			Target:           cachequery.Target{Level: hw.L1, Set: 5},
			Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:            learn.Options{Depth: 1},
			DeterminismEvery: 64,
		}
	}
	serial, err := LearnHardware(context.Background(), request(1))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := LearnHardware(context.Background(), request(4))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := batched.Machine.Equivalent(serial.Machine); !eq {
		t.Fatalf("batched hardware learning diverged from serial, ce=%v", ce)
	}
	if batched.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8 (PLRU-4)", batched.Machine.NumStates)
	}
}
