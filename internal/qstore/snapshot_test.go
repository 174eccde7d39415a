package qstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// randomStore fills a store with pseudo-random words for round-trip tests.
func randomStore(opt Options, seed int64, n int) (*Store[int, string], map[string]string) {
	st := New[int, string](opt)
	rng := rand.New(rand.NewSource(seed))
	want := make(map[string]string)
	degree := opt.Degree
	if degree == 0 {
		degree = 9
	}
	for i := 0; i < n; i++ {
		w := make([]int, 1+rng.Intn(10))
		for j := range w {
			w[j] = rng.Intn(degree)
		}
		v := string(rune('a' + rng.Intn(26)))
		st.Set(w, v)
		key := make([]byte, len(w))
		for j, a := range w {
			key[j] = byte('0' + a)
		}
		want[string(key)] = v
	}
	return st, want
}

func checkContents(t *testing.T, st *Store[int, string], want map[string]string) {
	t.Helper()
	for key, v := range want {
		w := make([]int, len(key))
		for j := range key {
			w[j] = int(key[j] - '0')
		}
		got, ok := st.Get(w)
		if !ok || got != v {
			t.Fatalf("key %q: got (%q, %v), want (%q, true)", key, got, ok, v)
		}
	}
	if st.CountSet() != len(want) {
		t.Fatalf("CountSet = %d, want %d", st.CountSet(), len(want))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, opt := range []Options{
		{Degree: 9, Stripes: 4, Sync: true},
		{Degree: 0, Stripes: 1},
		{Degree: 0, Stripes: 6, RouteDepth: 3, Sync: true},
	} {
		st, want := randomStore(opt, 42, 500)
		var buf bytes.Buffer
		if err := st.Save(&buf, StringCodec{}); err != nil {
			t.Fatal(err)
		}
		// Load into a differently-striped store: entries re-route.
		opt2 := opt
		opt2.Stripes = opt.Stripes + 3
		fresh := New[int, string](opt2)
		if err := fresh.Load(bytes.NewReader(buf.Bytes()), StringCodec{}); err != nil {
			t.Fatal(err)
		}
		checkContents(t, fresh, want)

		// A second save of the loaded store must round-trip identically.
		var buf2 bytes.Buffer
		if err := fresh.Save(&buf2, StringCodec{}); err != nil {
			t.Fatal(err)
		}
		again := New[int, string](opt)
		if err := again.Load(bytes.NewReader(buf2.Bytes()), StringCodec{}); err != nil {
			t.Fatal(err)
		}
		checkContents(t, again, want)
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	st, _ := randomStore(Options{Degree: 5, Stripes: 2}, 3, 200)
	var buf bytes.Buffer
	if err := st.Save(&buf, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, len(data) / 2, len(data) - 1} {
		fresh := New[int, string](Options{Degree: 5})
		err := fresh.Load(bytes.NewReader(data[:cut]), StringCodec{})
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("truncation at %d/%d not rejected with a SnapshotError: %v", cut, len(data), err)
		}
		if fresh.CountSet() != 0 {
			t.Fatalf("truncated load at %d left %d entries behind", cut, fresh.CountSet())
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	st, _ := randomStore(Options{Degree: 5, Stripes: 2}, 4, 200)
	var buf bytes.Buffer
	if err := st.Save(&buf, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, flip := range []int{1, len(data) / 3, len(data) - 6} {
		corrupt := append([]byte(nil), data...)
		corrupt[flip] ^= 0x40
		fresh := New[int, string](Options{Degree: 5})
		err := fresh.Load(bytes.NewReader(corrupt), StringCodec{})
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit flip at %d not caught by the checksum: %v", flip, err)
		}
		if fresh.CountSet() != 0 {
			t.Fatal("corrupt load mutated the store")
		}
	}
}

// rewriteHeaderField re-encodes one uvarint header field (index after the
// magic) and fixes up the trailing checksum, simulating a snapshot written
// by a different format generation.
func rewriteHeaderField(t *testing.T, data []byte, field int, value uint64) []byte {
	t.Helper()
	out := append([]byte(nil), data[:len(snapMagic)]...)
	p := data[len(snapMagic) : len(data)-4]
	for i := 0; i <= field; i++ {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatal("header parse failed")
		}
		if i == field {
			out = binary.AppendUvarint(out, value)
		} else {
			out = binary.AppendUvarint(out, v)
		}
		p = p[n:]
	}
	out = append(out, p...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...)
}

func TestSnapshotRejectsVersionMismatch(t *testing.T) {
	st, _ := randomStore(Options{Degree: 5}, 5, 50)
	var buf bytes.Buffer
	if err := st.Save(&buf, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	futuristic := rewriteHeaderField(t, buf.Bytes(), 0, SnapshotVersion+1)
	fresh := New[int, string](Options{Degree: 5})
	err := fresh.Load(bytes.NewReader(futuristic), StringCodec{})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

func TestSnapshotRejectsImplausibleEntryCount(t *testing.T) {
	// A huge declared entry count with a fixed-up checksum must be
	// rejected with an error, not panic sizing an allocation by it.
	st, _ := randomStore(Options{Degree: 5}, 9, 20)
	var buf bytes.Buffer
	if err := st.Save(&buf, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	huge := rewriteHeaderField(t, buf.Bytes(), 3, 1<<61)
	fresh := New[int, string](Options{Degree: 5})
	err := fresh.Load(bytes.NewReader(huge), StringCodec{})
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("implausible entry count not rejected with a SnapshotError: %v", err)
	}
	if fresh.CountSet() != 0 {
		t.Fatal("rejected load mutated the store")
	}
}

func TestSnapshotRejectsDegreeMismatch(t *testing.T) {
	st, _ := randomStore(Options{Degree: 5}, 6, 50)
	var buf bytes.Buffer
	if err := st.Save(&buf, StringCodec{}); err != nil {
		t.Fatal(err)
	}
	fresh := New[int, string](Options{Degree: 7})
	err := fresh.Load(bytes.NewReader(buf.Bytes()), StringCodec{})
	if err == nil || !strings.Contains(err.Error(), "degree") {
		t.Fatalf("degree mismatch not rejected: %v", err)
	}
}

func TestSnapshotRejectsBadMagic(t *testing.T) {
	payload := []byte("NOTASNAPSHOT")
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	data := append(payload, crc[:]...)
	fresh := New[int, string](Options{Degree: 5})
	err := fresh.Load(bytes.NewReader(data), StringCodec{})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestSnapshotRejectsHugeSharedPrefix(t *testing.T) {
	// An entry whose shared-prefix count does not fit in an int must be
	// rejected, not wrap negative past the bounds check and panic slicing
	// the previous key.
	payload := []byte("QSNAP")
	for _, x := range []uint64{SnapshotVersion, 5, 1, 1, 1 << 63, 0} {
		payload = binary.AppendUvarint(payload, x)
	}
	payload = append(payload, 0)
	data := binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	fresh := New[int, string](Options{Degree: 5})
	err := fresh.Load(bytes.NewReader(data), StringCodec{})
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("huge shared prefix not rejected with a SnapshotError: %v", err)
	}
}
