package learn

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// orderTeacher answers from a machine and records every word it is asked,
// in order.
type orderTeacher struct {
	m     *mealy.Machine
	asked [][]int
}

func (t *orderTeacher) NumInputs() int { return t.m.NumInputs }

func (t *orderTeacher) OutputQuery(_ context.Context, word []int) ([]int, error) {
	t.asked = append(t.asked, append([]int(nil), word...))
	return t.m.Run(word), nil
}

// TestTrieLearnerNeverReasksPrefixes: the learner learns the ground truth
// and never asks the teacher a word that equals, or is a prefix of, a word
// it asked earlier — the prefix-tree memo answers all of those.
func TestTrieLearnerNeverReasksPrefixes(t *testing.T) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"LRU", 4}, {"PLRU", 4}, {"New1", 2},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name  string
			assoc int
		}{"SRRIP-FP", 4})
	}
	for _, c := range cases {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		teacher := &orderTeacher{m: truth}
		res, err := Learn(context.Background(), teacher, Options{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ok, cex := res.Machine.Equivalent(truth); !ok {
			t.Errorf("%s-%d: learned machine differs from the ground truth on %v", c.name, c.assoc, cex)
		}
		if len(teacher.asked) != res.Stats.OutputQueries {
			t.Errorf("%s-%d: teacher saw %d words, learner counted %d",
				c.name, c.assoc, len(teacher.asked), res.Stats.OutputQueries)
		}
		answered := qstore.New[int, struct{}](qstore.Options{Degree: truth.NumInputs})
		for i, w := range teacher.asked {
			sh := answered.Acquire(w)
			n := int32(0)
			for _, a := range w {
				if n = sh.Child(n, a); n < 0 {
					break
				}
			}
			if n >= 0 {
				sh.Release()
				t.Fatalf("%s-%d: query %d %v re-asks an answered word or prefix", c.name, c.assoc, i, w)
			}
			n = 0
			for _, a := range w {
				n = sh.Extend(n, a)
			}
			sh.Release()
		}
	}
}

// TestTriePrefixSharingSavesQueries: a query that is a proper prefix of an
// answered word must be a memo hit, not a teacher query.
func TestTriePrefixSharingSavesQueries(t *testing.T) {
	truth, _ := mealy.FromPolicy(policy.MustNew("MRU", 4), 0)
	counter := newCountingTeacher(truth)
	l := &learner{engine: newEngine(context.Background(), counter, Options{Depth: 1})}
	long := []int{4, 0, 1, 4, 2}
	if _, err := l.query(long); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(long); cut++ {
		out, err := l.query(long[:cut])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, truth.Run(long[:cut])) {
			t.Fatalf("prefix answer wrong for %v", long[:cut])
		}
	}
	if got := counter.distinctWords(); got != 1 {
		t.Errorf("teacher consulted for %d words, want 1 (prefixes must hit the trie)", got)
	}
}

// TestConcurrentTrieInsertionUnderPoolTeacher drives a trie-backed Polca
// oracle (concurrent session parking and output recording) through a
// PoolTeacher from many goroutines over overlapping, prefix-sharing word
// sets. It exists to run under -race: the shared tries must be data-race
// free, and every answer must match the extracted ground truth.
func TestConcurrentTrieInsertionUnderPoolTeacher(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("SRRIP-HP", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("SRRIP-HP", 4)),
		polca.WithSessionCap(16))
	pool := NewPoolTeacher(oracle, 8)

	words := qstore.Enumerate(truth.NumInputs, 3)[1:] // heavy prefix overlap
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := pool.OutputQueryBatch(context.Background(), words)
				if err != nil {
					errCh <- err
					return
				}
				for i, w := range words {
					if !reflect.DeepEqual(got[i], truth.Run(w)) {
						t.Errorf("goroutine %d: wrong batch answer for %v", g, w)
						return
					}
				}
			} else {
				for _, w := range words {
					got, err := oracle.OutputQuery(context.Background(), w)
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, truth.Run(w)) {
						t.Errorf("goroutine %d: wrong answer for %v", g, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := oracle.Stats(); st.MemoHits == 0 {
		t.Error("concurrent run never hit the shared trie")
	}
}
