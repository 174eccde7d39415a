package qstore

// Versioned binary snapshots: Save serializes every recorded (key, value)
// pair; Load verifies and replays them into a store. The format is
//
//	magic "QSNAP" | uvarint version | uvarint degree | uvarint routeDepth
//	uvarint entryCount
//	entryCount × entry
//	uint32 little-endian CRC-32 (IEEE) of all preceding bytes
//
// Entries are emitted in shard order, depth-first, and each key is
// delta-encoded against its predecessor:
//
//	entry = uvarint keep        # symbols shared with the previous key
//	      | uvarint m           # symbols appended after the shared prefix
//	      | m × uvarint symbol
//	      | value               # codec encoding, self-delimiting
//
// Depth-first emission makes the shared prefix the parent's whole key, so
// a snapshot costs O(1) symbols per node instead of O(depth). Transient
// state — epoch marks, caller-side decorations such as parked sessions —
// is not saved; values are reduced to whatever the codec encodes.
//
// Load reads the whole snapshot, checks the checksum before touching the
// store (a truncated or corrupted file is rejected atomically), and
// errors on a version or degree mismatch. Entries merge into the store's
// existing contents; loading into a store with a different stripe count
// or synchronization mode is fine, since every entry is re-routed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
)

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

var snapMagic = []byte("QSNAP")

// ErrCorrupt is the sentinel every snapshot decoding failure wraps: bad
// magic, version mismatch, truncation, checksum, malformed entry. Warm-start
// callers match it with errors.Is to degrade to a cold run on a damaged
// snapshot file, as opposed to a missing one (fs.ErrNotExist from the
// opener) or an I/O failure.
var ErrCorrupt = errors.New("snapshot corrupt")

// ErrMissing is the sentinel for a snapshot that does not exist at all, as
// opposed to one that exists but is damaged (ErrCorrupt). It aliases
// fs.ErrNotExist so the bare error from opening the file matches it too;
// warm-start callers check the two separately because both degrade to a
// cold run but only corruption deserves a warning.
var ErrMissing = fs.ErrNotExist

// SnapshotError is the error type of every snapshot decoding failure
// (bad magic, version mismatch, truncation, checksum, malformed entry).
// It wraps ErrCorrupt.
type SnapshotError struct{ msg string }

func (e *SnapshotError) Error() string { return "qstore: " + e.msg }

// Unwrap marks every decoding failure as ErrCorrupt.
func (e *SnapshotError) Unwrap() error { return ErrCorrupt }

func snapErrf(format string, args ...any) error {
	return &SnapshotError{msg: fmt.Sprintf(format, args...)}
}

// Codec encodes and decodes one store's value type for snapshots. The
// encoding must be self-delimiting: DecodeValue reports how many bytes it
// consumed.
type Codec[V any] interface {
	// AppendValue appends the encoding of v to dst.
	AppendValue(dst []byte, v V) []byte
	// DecodeValue decodes one value from the front of src, returning it
	// and the number of bytes consumed.
	DecodeValue(src []byte) (V, int, error)
}

// BytesCodec is a Codec for []byte values: uvarint length + raw bytes.
type BytesCodec struct{}

// AppendValue implements Codec.
func (BytesCodec) AppendValue(dst []byte, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// DecodeValue implements Codec.
func (BytesCodec) DecodeValue(src []byte) ([]byte, int, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 || uint64(len(src)-k) < n {
		return nil, 0, snapErrf("truncated byte value")
	}
	out := make([]byte, n)
	copy(out, src[k:])
	return out, k + int(n), nil
}

// StringCodec is a Codec for string values.
type StringCodec struct{}

// AppendValue implements Codec.
func (StringCodec) AppendValue(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// DecodeValue implements Codec.
func (StringCodec) DecodeValue(src []byte) (string, int, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 || uint64(len(src)-k) < n {
		return "", 0, snapErrf("truncated string value")
	}
	return string(src[k : k+int(n)]), k + int(n), nil
}

// Save writes a snapshot of every recorded value to w. Shards are
// acquired one at a time, so a Sync store may be saved while other shards
// stay live; the snapshot is a consistent image of each shard at the
// moment it is visited.
func (s *Store[K, V]) Save(w io.Writer, c Codec[V]) error {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, SnapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(s.degree))
	buf = binary.AppendUvarint(buf, uint64(s.routeDepth))

	var (
		entries int
		body    []byte
		prev    []K // key of the previous emitted entry
		key     []K // DFS key stack
	)
	emit := func(v V) {
		keep := 0
		for keep < len(prev) && keep < len(key) && prev[keep] == key[keep] {
			keep++
		}
		body = binary.AppendUvarint(body, uint64(keep))
		body = binary.AppendUvarint(body, uint64(len(key)-keep))
		for _, a := range key[keep:] {
			body = binary.AppendUvarint(body, uint64(a))
		}
		body = c.AppendValue(body, v)
		prev = append(prev[:0], key...)
		entries++
	}
	for i := range s.shards {
		sh := s.AcquireIdx(i)
		// Iterative DFS over the shard arena, tracking the key stack.
		type frame struct {
			n    int32
			edge int // next dense edge to visit
		}
		stack := []frame{{n: 0}}
		if sh.nodes[0].set {
			emit(sh.nodes[0].val)
		}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ch := sh.childSlice(f.n)
			if f.edge >= len(ch) {
				stack = stack[:len(stack)-1]
				if len(key) > 0 {
					key = key[:len(key)-1]
				}
				continue
			}
			e := f.edge
			f.edge++
			child := ch[e]
			if child < 0 {
				continue
			}
			var label K
			if sh.dense == nil {
				label = K(e)
			} else {
				label = sh.edges[e]
			}
			key = append(key, label)
			if sh.nodes[child].set {
				emit(sh.nodes[child].val)
			}
			stack = append(stack, frame{n: child})
		}
		key = key[:0]
		// Force a full key on the first entry of the next shard: keys in
		// different shards share no routing prefix by construction, but
		// delta coding must not assume it.
		prev = prev[:0]
		sh.Release()
	}

	buf = binary.AppendUvarint(buf, uint64(entries))
	buf = append(buf, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, crc[:]...)
	_, err := w.Write(buf)
	return err
}

// Load reads a snapshot from r and merges its entries into the store.
// The checksum is verified before any entry is applied: a truncated or
// corrupted snapshot leaves the store untouched.
func (s *Store[K, V]) Load(r io.Reader, c Codec[V]) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("qstore: reading snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+4 {
		return snapErrf("snapshot truncated (%d bytes)", len(data))
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	payload := data[:len(data)-4]
	if crc32.ChecksumIEEE(payload) != sum {
		return snapErrf("snapshot checksum mismatch (truncated or corrupt)")
	}
	if string(payload[:len(snapMagic)]) != string(snapMagic) {
		return snapErrf("not a qstore snapshot (bad magic)")
	}
	p := payload[len(snapMagic):]
	version, n := binary.Uvarint(p)
	if n <= 0 {
		return snapErrf("snapshot header truncated")
	}
	p = p[n:]
	if version != SnapshotVersion {
		return snapErrf("unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	degree, n := binary.Uvarint(p)
	if n <= 0 {
		return snapErrf("snapshot header truncated")
	}
	p = p[n:]
	if int(degree) != s.degree {
		return snapErrf("snapshot degree %d does not match store degree %d", degree, s.degree)
	}
	if _, n = binary.Uvarint(p); n <= 0 { // routeDepth: informational
		return snapErrf("snapshot header truncated")
	}
	p = p[n:]
	entries, n := binary.Uvarint(p)
	if n <= 0 {
		return snapErrf("snapshot header truncated")
	}
	p = p[n:]
	// Every entry costs at least three bytes (two key uvarints plus a
	// value byte), so an entry count beyond the remaining payload is
	// malformed — reject it before sizing any allocation by it.
	if entries > uint64(len(p)) {
		return snapErrf("snapshot declares %d entries in %d payload bytes", entries, len(p))
	}

	// Parse everything before applying anything, so a malformed snapshot
	// leaves the store untouched.
	type entry struct {
		key []K
		val V
	}
	parsed := make([]entry, 0, entries)
	var key []K
	for i := uint64(0); i < entries; i++ {
		keep, n := binary.Uvarint(p)
		if n <= 0 {
			return snapErrf("entry %d truncated", i)
		}
		p = p[n:]
		if keep > uint64(len(key)) {
			return snapErrf("entry %d shares %d symbols, previous key has %d", i, keep, len(key))
		}
		key = key[:keep]
		m, n := binary.Uvarint(p)
		if n <= 0 {
			return snapErrf("entry %d truncated", i)
		}
		p = p[n:]
		for j := uint64(0); j < m; j++ {
			sym, n := binary.Uvarint(p)
			if n <= 0 {
				return snapErrf("entry %d truncated", i)
			}
			p = p[n:]
			key = append(key, K(sym))
		}
		v, used, err := c.DecodeValue(p)
		if err != nil {
			return fmt.Errorf("qstore: entry %d: %w", i, err)
		}
		p = p[used:]
		if !s.InRange(key) {
			return snapErrf("entry %d key out of range for degree %d", i, s.degree)
		}
		parsed = append(parsed, entry{key: append([]K(nil), key...), val: v})
	}
	if len(p) != 0 {
		return snapErrf("%d trailing bytes after %d entries", len(p), entries)
	}
	for _, e := range parsed {
		s.Set(e.key, e.val)
	}
	return nil
}
