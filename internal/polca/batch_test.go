package polca

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/learn"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// chunk splits words into batches of size sz, preserving order.
func chunk(words [][]int, sz int) [][][]int {
	var out [][][]int
	for len(words) > 0 {
		n := sz
		if n > len(words) {
			n = len(words)
		}
		out = append(out, words[:n])
		words = words[n:]
	}
	return out
}

// TestBatchedOracleMatchesSerial drives two oracles through identical
// chunked query streams — the batched engine over a compiled prober, and
// the per-session path over an interpreted prober asked word by word —
// and asserts bit-identical answers AND bit-identical cost counters after
// every chunk. The stream deliberately mixes extension
// words (suffix resume), in-batch prefix/extension dependencies, duplicate
// words (in-batch memo), and a small session cap (LRU evictions dropping
// placeholder parks), all under periodic determinism audits.
func TestBatchedOracleMatchesSerial(t *testing.T) {
	for _, c := range tenPolicies {
		t.Run(c.name, func(t *testing.T) {
			for _, cap := range []int{0, 6} {
				serial := NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)),
					WithSessionCap(cap), WithDeterminismChecks(3))
				batched := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)),
					WithSessionCap(cap), WithDeterminismChecks(3))
				if batched.engine == nil {
					t.Fatal("compiled prober is not served by the batched engine")
				}
				words := qstore.Enumerate(policy.NumInputs(c.assoc), 4)[1:]
				// Duplicate a few words into the stream so batches carry
				// fully-known and in-batch-duplicate entries.
				stream := append(append([][]int{}, words...), words[3], words[len(words)/2], words[3])
				for ci, ch := range chunk(stream, 7) {
					want := make([][]int, len(ch))
					for i, w := range ch {
						ans, err := serial.OutputQuery(context.Background(), w)
						if err != nil {
							t.Fatalf("serial chunk %d word %v: %v", ci, w, err)
						}
						want[i] = ans
					}
					got, err := batched.OutputQueryBatch(context.Background(), ch)
					if err != nil {
						t.Fatalf("batched chunk %d: %v", ci, err)
					}
					for i := range ch {
						for j := range want[i] {
							if got[i][j] != want[i][j] {
								t.Fatalf("cap %d chunk %d word %v: batched %v, serial %v", cap, ci, ch[i], got[i], want[i])
							}
						}
					}
					if bs, ss := batched.Stats(), serial.Stats(); bs != ss {
						t.Fatalf("cap %d: stats diverged after chunk %d: batched %+v, serial %+v", cap, ci, bs, ss)
					}
				}
				// The recorded stores must agree too: replaying the whole
				// stream once more must be answered fully from memo on both,
				// with identical answers and identical counter deltas.
				got, err := batched.OutputQueryBatch(context.Background(), words)
				if err != nil {
					t.Fatalf("batched replay: %v", err)
				}
				for i, w := range words {
					want, err := serial.OutputQuery(context.Background(), w)
					if err != nil {
						t.Fatalf("serial replay %v: %v", w, err)
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("replay %v: batched %v, serial %v", w, got[i], want)
						}
					}
				}
				if bs, ss := batched.Stats(), serial.Stats(); bs != ss {
					t.Fatalf("cap %d: stats diverged after replay: batched %+v, serial %+v", cap, bs, ss)
				}
			}
		})
	}
}

// TestBatchedNoMemoMatchesSerial pins the memo-less lockstep path (the
// ablation-benchmark configuration): same answers, same counters as the
// per-session WithoutMemo oracle over an interpreted prober.
func TestBatchedNoMemoMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"SRRIP-HP", 4}, {"New1", 4}, {"PLRU", 8}} {
		t.Run(c.name, func(t *testing.T) {
			serial := NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)), WithoutMemo())
			batched := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)), WithoutMemo())
			words := qstore.Enumerate(policy.NumInputs(c.assoc), 4)[1:]
			got, err := batched.OutputQueryBatch(context.Background(), words)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range words {
				want, err := serial.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatalf("serial %v: %v", w, err)
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("word %v: batched %v, serial %v", w, got[i], want)
					}
				}
			}
			if bs, ss := batched.Stats(), serial.Stats(); bs != ss {
				t.Fatalf("stats diverged: batched %+v, serial %+v", bs, ss)
			}
		})
	}
}

// TestBatchedInterpretedFallsBack: an interpreted prober has no kernel
// table, so it keeps the per-session path — yet it advertises the same
// constant batch hint as a compiled prober, so the learner chunks both
// identically at any GOMAXPROCS — and a batch answers exactly as the same
// words asked one by one.
func TestBatchedInterpretedFallsBack(t *testing.T) {
	o := NewOracle(NewInterpretedSimProber(policy.MustNew("LRU", 4)))
	if o.engine != nil {
		t.Fatal("interpreted prober got the batched engine")
	}
	if h := o.BatchHint(); h != batchedHint {
		t.Fatalf("interpreted prober hints %d, want the constant %d", h, batchedHint)
	}
	if h := NewOracle(NewSimProber(policy.MustNew("LRU", 4))).BatchHint(); h != batchedHint {
		t.Fatalf("compiled prober hints %d, want the constant %d", h, batchedHint)
	}
	words := qstore.Enumerate(policy.NumInputs(4), 3)[1:]
	ref := NewOracle(NewInterpretedSimProber(policy.MustNew("LRU", 4)))
	got, err := o.OutputQueryBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		want, err := ref.OutputQuery(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("word %v: %v vs %v", w, got[i], want)
			}
		}
	}
}

// TestBatchedLearnEquivalence runs the full learner end to end on a
// per-session oracle (interpreted prober) and a batched one (compiled
// prober) with a pinned prefetch width: the learned machines must be
// identical and the oracle counters bit-identical — the whole learning
// trajectory, not just individual queries, is preserved.
func TestBatchedLearnEquivalence(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP-HP", "New1"} {
		t.Run(name, func(t *testing.T) {
			opt := learn.Options{Depth: 1, BatchSize: 32}
			serial := NewOracle(NewInterpretedSimProber(policy.MustNew(name, 4)))
			batched := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			rs, err := learn.Learn(context.Background(), serial, opt)
			if err != nil {
				t.Fatalf("serial learn: %v", err)
			}
			rb, err := learn.Learn(context.Background(), batched, opt)
			if err != nil {
				t.Fatalf("batched learn: %v", err)
			}
			js, err := json.Marshal(rs.Machine)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(rb.Machine)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, jb) {
				t.Fatal("batched and serial learners produced different machine JSON")
			}
			if bs, ss := batched.Stats(), serial.Stats(); bs != ss {
				t.Fatalf("oracle stats diverged: batched %+v, serial %+v", bs, ss)
			}
		})
	}
}
