package polca

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mealy"
	"repro/internal/policy"
)

// TestConcurrentBatchesOnOneOracle shares one compiled oracle between
// several goroutines — the shape of a polcad engine serving many tenants —
// that mix OutputQueryBatch chunks with single OutputQuery calls over
// overlapping, prefix-sharing words. Batches in flight at the same time
// would otherwise resolve each other's placeholder parks; a small session
// cap adds LRU evictions of those parks on top. Every answer must match
// the machine extracted from the policy, and the counters must account for
// every word asked. Run it with -race -count=10.
func TestConcurrentBatchesOnOneOracle(t *testing.T) {
	const goroutines = 4
	words := 300
	if testing.Short() {
		words = 120
	}
	for _, c := range []struct {
		name  string
		assoc int
	}{{"New1", 4}, {"SRRIP-HP", 4}, {"PLRU", 8}} {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			t.Fatal(err)
		}
		// One shared pool of random words: short ones are prefixes of many
		// longer ones, so the goroutines keep extending each other's paths.
		rng := rand.New(rand.NewSource(int64(c.assoc)))
		pool := make([][]int, words)
		for i := range pool {
			pool[i] = make([]int, 1+rng.Intn(12))
			for j := range pool[i] {
				pool[i][j] = rng.Intn(truth.NumInputs)
			}
		}
		for _, sessCap := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s-%d/cap=%d", c.name, c.assoc, sessCap), func(t *testing.T) {
				oracle := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)),
					WithSessionCap(sessCap), WithDeterminismChecks(7))
				check := func(word, got []int) error {
					want := truth.Run(word)
					for j := range want {
						if got[j] != want[j] {
							return fmt.Errorf("word %v: answered %v, ground truth %v", word, got, want)
						}
					}
					return nil
				}
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						order := rand.New(rand.NewSource(int64(g))).Perm(len(pool))
						for i := 0; i < len(order); {
							if (i/16+g)%2 == 1 {
								w := pool[order[i]]
								got, err := oracle.OutputQuery(context.Background(), w)
								if err == nil {
									err = check(w, got)
								}
								if err != nil {
									errs <- err
									return
								}
								i++
								continue
							}
							end := min(i+16, len(order))
							batch := make([][]int, 0, end-i)
							for _, k := range order[i:end] {
								batch = append(batch, pool[k])
							}
							got, err := oracle.OutputQueryBatch(context.Background(), batch)
							for j := 0; err == nil && j < len(batch); j++ {
								err = check(batch[j], got[j])
							}
							if err != nil {
								errs <- err
								return
							}
							i = end
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if got, want := oracle.Stats().OutputQueries, goroutines*len(pool); got != want {
					t.Errorf("oracle counted %d output queries, %d were asked", got, want)
				}
			})
		}
	}
}
