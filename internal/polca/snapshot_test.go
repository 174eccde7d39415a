package polca

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// randomWords draws a reproducible query workload over the policy alphabet.
func randomWords(numIn, count int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	words := make([][]int, count)
	for i := range words {
		w := make([]int, 1+rng.Intn(12))
		for j := range w {
			w[j] = rng.Intn(numIn)
		}
		words[i] = w
	}
	return words
}

// TestSnapshotWarmOracleSkipsBackend: a warm oracle must answer every
// previously-asked word from the loaded store — zero probes, zero accesses
// — with answers identical to the cold oracle's.
func TestSnapshotWarmOracleSkipsBackend(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"New1", 4}} {
		t.Run(c.name, func(t *testing.T) {
			scope := "test:" + c.name
			cold := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			words := randomWords(cold.NumInputs(), 120, int64(11+c.assoc))
			want := make([][]int, len(words))
			for i, w := range words {
				out, err := cold.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}
			var buf bytes.Buffer
			if err := cold.SaveSnapshot(&buf, scope); err != nil {
				t.Fatal(err)
			}

			warm := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			if err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes()), scope); err != nil {
				t.Fatal(err)
			}
			for i, w := range words {
				out, err := warm.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, want[i]) {
					t.Fatalf("warm oracle diverged on %v: %v vs %v", w, out, want[i])
				}
			}
			if st := warm.Stats(); st.Probes != 0 || st.Accesses != 0 {
				t.Errorf("warm oracle touched the backend: %+v", st)
			}

			// A word extending a recorded prefix costs one session: the
			// known prefix is fast-forwarded by pure feeding (no eviction
			// probes) and only the new symbol does real oracle work.
			ext := append(append([]int(nil), words[0]...), 0)
			if _, err := warm.OutputQuery(context.Background(), ext); err != nil {
				t.Fatal(err)
			}
			if st := warm.Stats(); st.Probes != 1 || st.Accesses > len(ext)+c.assoc {
				t.Errorf("extension of a snapshotted word cost %d probes / %d accesses", st.Probes, st.Accesses)
			}
		})
	}
}

func TestSnapshotScopeMismatchRejected(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := cold.OutputQuery(context.Background(), []int{4, 0, 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "sim:LRU-4"); err != nil {
		t.Fatal(err)
	}
	warm := NewOracle(NewSimProber(policy.MustNew("MRU", 4)))
	err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes()), "sim:MRU-4")
	if err == nil || !strings.Contains(err.Error(), "recorded for") {
		t.Fatalf("scope mismatch not rejected: %v", err)
	}
	if st := warm.Stats(); st.MemoHits != 0 {
		t.Error("rejected snapshot left state behind")
	}
}

func TestSnapshotRejectsCorruptPayload(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	for _, w := range randomWords(cold.NumInputs(), 30, 3) {
		if _, err := cold.OutputQuery(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "s"); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x20
	warm := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if err := warm.LoadSnapshot(bytes.NewReader(corrupt), "s"); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	truncated := data[:len(data)-7]
	if err := warm.LoadSnapshot(bytes.NewReader(truncated), "s"); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// constOutCodec writes every output-store value as the same raw varint,
// forging CRC-valid snapshots whose outputs no cache can produce.
type constOutCodec struct{ v int64 }

func (c constOutCodec) AppendValue(dst []byte, _ outVal) []byte {
	return binary.AppendVarint(dst, c.v)
}

func (constOutCodec) DecodeValue([]byte) (outVal, int, error) {
	return outVal{}, 0, errors.New("constOutCodec is write-only")
}

// TestSnapshotRejectsOutOfRangeOutputs: a checksum-valid snapshot whose
// recorded outputs lie outside [policy.Bottom, assoc) must fail to load as
// qstore.ErrCorrupt — so ColdOnDamage callers start cold — and leave the
// oracle answering from the cache, on the batched engine, the interpreted
// session path and the reset-rooted probe path alike. Out-of-range
// outputs used to load silently and panic the first query reading them.
func TestSnapshotRejectsOutOfRangeOutputs(t *testing.T) {
	ctx := context.Background()
	word := []int{4, 0, 4, 1}
	src := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	want, err := src.OutputQuery(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	probers := map[string]func() Prober{
		"compiled":    func() Prober { return NewSimProber(policy.MustNew("LRU", 4)) },
		"interpreted": func() Prober { return NewInterpretedSimProber(policy.MustNew("LRU", 4)) },
		"probes":      func() Prober { return SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))} },
	}
	for _, v := range []int64{7, 4, -2, -5, 40000} {
		var buf bytes.Buffer
		buf.Write(snapshotHeader("s"))
		if err := src.out.Save(&buf, constOutCodec{v}); err != nil {
			t.Fatal(err)
		}
		for name, mk := range probers {
			o := NewOracle(mk())
			if err := o.LoadSnapshot(bytes.NewReader(buf.Bytes()), "s"); !errors.Is(err, qstore.ErrCorrupt) {
				t.Fatalf("%s: output %d loaded with err %v, want qstore.ErrCorrupt", name, v, err)
			}
			got, err := o.OutputQuery(ctx, word)
			if err != nil {
				t.Fatalf("%s: query after rejected load: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: query after rejected load = %v, want %v", name, got, want)
			}
		}
	}
	if _, _, err := (outCodec{assoc: 4}).DecodeValue(nil); !errors.Is(err, qstore.ErrCorrupt) {
		t.Errorf("truncated output value: err %v, want qstore.ErrCorrupt", err)
	}
}

// Loading over an oracle that has already answered queries would zero
// parked-session decorations the LRU lists still reference; it must be
// refused.
func TestSnapshotLoadAfterQueriesRejected(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := cold.OutputQuery(context.Background(), []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "s"); err != nil {
		t.Fatal(err)
	}
	live := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := live.OutputQuery(context.Background(), []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	if err := live.LoadSnapshot(bytes.NewReader(buf.Bytes()), "s"); err == nil {
		t.Fatal("load into a live oracle accepted")
	}
}

func TestSnapshotRequiresTrieEngine(t *testing.T) {
	bare := NewOracle(NewSimProber(policy.MustNew("LRU", 4)), WithoutMemo())
	var buf bytes.Buffer
	if err := bare.SaveSnapshot(&buf, "s"); err == nil {
		t.Fatal("unmemoized oracle produced a snapshot")
	}
	if err := bare.LoadSnapshot(bytes.NewReader(nil), "s"); err == nil {
		t.Fatal("unmemoized oracle loaded a snapshot")
	}
}

// TestCheckpointCadenceOnBatchedEngine: a compiled, fault-free learn —
// every query answered by the batched engine — must fire the checkpoint
// hook as it goes: at least once, at most once per batch, and each time in
// a new window of the cadence. The crash-resume tests drive their learns
// through a fault injector, which takes the reset-rooted probe path, so
// they cannot see this path losing its checkpoints.
func TestCheckpointCadenceOnBatchedEngine(t *testing.T) {
	const every = 64
	o := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	var windows []int
	o.SetCheckpointer(every, func() {
		windows = append(windows, o.Stats().OutputQueries/every)
	})
	calls := 0
	res, err := learn.Learn(context.Background(), batchCounter{o, &calls}, learn.Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 24 {
		t.Fatalf("learned %d states, want 24 (LRU-4)", res.Machine.NumStates)
	}
	if len(windows) == 0 {
		t.Fatalf("%d output queries answered, no checkpoint fired", o.Stats().OutputQueries)
	}
	if len(windows) > calls {
		t.Errorf("%d checkpoints for %d oracle calls, want at most one per call", len(windows), calls)
	}
	for i := 1; i < len(windows); i++ {
		if windows[i] <= windows[i-1] {
			t.Fatalf("checkpoint %d fired in window %d, not after window %d", i, windows[i], windows[i-1])
		}
	}
}

// batchCounter forwards to an oracle, counting its query calls.
type batchCounter struct {
	*Oracle
	calls *int
}

func (b batchCounter) OutputQuery(ctx context.Context, w []int) ([]int, error) {
	*b.calls++
	return b.Oracle.OutputQuery(ctx, w)
}

func (b batchCounter) OutputQueryBatch(ctx context.Context, ws [][]int) ([][]int, error) {
	*b.calls++
	return b.Oracle.OutputQueryBatch(ctx, ws)
}
