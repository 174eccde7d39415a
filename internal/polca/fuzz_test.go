package polca

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/policy"
)

// fuzzWords are the queries every successfully loaded fuzz snapshot must
// survive: Ln-only, Evct-only and mixed words over the LRU-4 alphabet.
var fuzzWords = [][]int{
	{4, 0, 4, 1},
	{0, 1, 2, 3},
	{4, 4, 4, 4, 4},
	{4, 3, 4, 2, 4, 1, 4, 0},
	{2, 4, 0, 4, 3, 1},
}

// FuzzLoadSnapshot feeds arbitrary qstore payloads to the oracle's
// snapshot decoder. The input is the store payload without its CRC-32
// trailer; the harness prepends the oracle header and appends a valid
// checksum, so mutations reach the entry decoder instead of stopping at
// the checksum. Whenever a load succeeds, fixed words are queried one by
// one and as a batch on a compiled oracle and on a reset-rooted
// SlowProber oracle: errors are allowed, panics are not.
//
//	go test -run=NONE -fuzz=FuzzLoadSnapshot -fuzztime=60s ./internal/polca/
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := append(snapshotHeader("fuzz"), payload...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
		probers := []func() Prober{
			func() Prober { return NewSimProber(policy.MustNew("LRU", 4)) },
			func() Prober { return SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))} },
		}
		ctx := context.Background()
		for _, mk := range probers {
			single := NewOracle(mk())
			if err := single.LoadSnapshot(bytes.NewReader(data), "fuzz"); err != nil {
				return
			}
			for _, w := range fuzzWords {
				single.OutputQuery(ctx, w)
			}
			batch := NewOracle(mk())
			if err := batch.LoadSnapshot(bytes.NewReader(data), "fuzz"); err != nil {
				t.Fatalf("second load of an accepted snapshot failed: %v", err)
			}
			batch.OutputQueryBatch(ctx, fuzzWords)
		}
	})
}

// TestFuzzSeedLoads: the committed seed corpus is a real LRU-4 store
// payload (recorded from fuzzWords) that loads and replays, so the fuzzer
// starts from the decoder's accepting path rather than from noise.
func TestFuzzSeedLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot", "lru4"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("unexpected corpus file layout: %q", raw)
	}
	payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	data := append(snapshotHeader("fuzz"), payload...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE([]byte(payload)))
	o := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if err := o.LoadSnapshot(bytes.NewReader(data), "fuzz"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.OutputQueryBatch(context.Background(), fuzzWords); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Probes != 0 {
		t.Errorf("seed snapshot left %d probes to the cache, want 0", st.Probes)
	}
}
