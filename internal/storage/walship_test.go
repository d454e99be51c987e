package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/uta-db/previewtables/internal/storage"
)

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func appendFile(t testing.TB, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// shipWAL builds a WAL with n single-record epochs under tiny segments,
// returning its directory — the seed for tail-read and framing tests.
func shipWAL(t testing.TB, n int, segBytes int64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	w, _, err := storage.OpenWAL(dir, storage.WALOptions{SegmentBytes: segBytes, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= n; e++ {
		payload := []byte(fmt.Sprintf("batch-%03d", e))
		if err := w.Append(uint64(e), byte(e%3), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALStreamRoundTrip: a stream is the concatenation of encoded
// records; the reader returns exactly them and ends with a clean io.EOF.
func TestWALStreamRoundTrip(t *testing.T) {
	recs := []storage.WALRecord{
		{Epoch: 7, Kind: 1, Payload: []byte(`{"edges":[]}`)},
		{Epoch: 8, Kind: 2, Payload: nil},
		{Epoch: 9, Kind: 1, Payload: bytes.Repeat([]byte{0xab}, 4096)},
	}
	var stream []byte
	for _, r := range recs {
		stream = append(stream, storage.AppendWALRecord(nil, r)...)
	}
	sr := storage.NewWALStreamReader(bytes.NewReader(stream))
	for i, want := range recs {
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Epoch != want.Epoch || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// TestWALStreamMatchesSegmentBytes pins the framing-reuse claim: the
// bytes Append writes after the segment header are exactly the bytes
// AppendWALRecord produces for the same record.
func TestWALStreamMatchesSegmentBytes(t *testing.T) {
	dir := shipWAL(t, 3, storage.DefaultWALSegmentBytes)
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment: %v (%v)", segs, err)
	}
	data := readFile(t, segs[0])
	recs, err := storage.ReplayWAL(dir)
	if err != nil || len(recs) != 3 {
		t.Fatalf("replay: %d records, %v", len(recs), err)
	}
	var want []byte
	for _, r := range recs {
		want = append(want, storage.AppendWALRecord(nil, r)...)
	}
	if !bytes.HasSuffix(data, want) {
		t.Fatalf("segment payload bytes differ from shipped framing")
	}
	// And the segment's record region decodes as a shipped stream.
	sr := storage.NewWALStreamReader(bytes.NewReader(want))
	for i := 0; ; i++ {
		rec, err := sr.Next()
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("stream yielded %d records, want 3", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Epoch != recs[i].Epoch {
			t.Fatalf("record %d: epoch %d, want %d", i, rec.Epoch, recs[i].Epoch)
		}
	}
}

// TestWALStreamCorruption: every single-byte flip and every mid-record
// truncation of a two-record stream must fail with ErrCorrupt (never a
// panic, never a silent wrong record), after yielding at most the valid
// prefix.
func TestWALStreamCorruption(t *testing.T) {
	a := storage.AppendWALRecord(nil, storage.WALRecord{Epoch: 5, Kind: 1, Payload: []byte("hello")})
	b := storage.AppendWALRecord(nil, storage.WALRecord{Epoch: 6, Kind: 2, Payload: []byte("world")})
	stream := append(append([]byte(nil), a...), b...)

	decodeAll := func(data []byte) (int, error) {
		sr := storage.NewWALStreamReader(bytes.NewReader(data))
		n := 0
		for {
			_, err := sr.Next()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n++
		}
	}

	for i := range stream {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x01
		n, err := decodeAll(mut)
		if err == nil {
			t.Fatalf("flip byte %d: decoded %d records cleanly, want ErrCorrupt", i, n)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("flip byte %d: unclassified error: %v", i, err)
		}
	}
	for i := 1; i < len(stream); i++ {
		if i == len(a) {
			continue // a record boundary is a clean EOF, not a tear
		}
		n, err := decodeAll(stream[:i])
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("truncate at %d: got %d records, err %v, want ErrCorrupt", i, n, err)
		}
		if want := 0; i > len(a) {
			want = 1
			if n != want {
				t.Fatalf("truncate at %d: %d records before the tear, want %d", i, n, want)
			}
		}
	}
}

// TestWALStreamEpochGap: a stream whose records skip an epoch is damage,
// not data — the contiguity discipline of ReplayWAL applies on the wire.
func TestWALStreamEpochGap(t *testing.T) {
	stream := append(
		storage.AppendWALRecord(nil, storage.WALRecord{Epoch: 3, Kind: 1, Payload: []byte("x")}),
		storage.AppendWALRecord(nil, storage.WALRecord{Epoch: 5, Kind: 1, Payload: []byte("y")})...,
	)
	sr := storage.NewWALStreamReader(bytes.NewReader(stream))
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("epoch gap: %v, want ErrCorrupt", err)
	}
}

// TestReadWALAfter covers the tail read: arbitrary cuts, cuts at and
// past the head, and a missing directory.
func TestReadWALAfter(t *testing.T) {
	const n = 20
	dir := shipWAL(t, n, 64) // tiny segments force several rotations
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments, got %v (%v)", segs, err)
	}
	for after := uint64(0); after <= n+2; after++ {
		recs, err := storage.ReadWALAfterN(dir, after, 0)
		if err != nil {
			t.Fatalf("after %d: %v", after, err)
		}
		want := 0
		if after < n {
			want = int(n - after)
		}
		if len(recs) != want {
			t.Fatalf("after %d: %d records, want %d", after, len(recs), want)
		}
		for i, r := range recs {
			if r.Epoch != after+uint64(i)+1 {
				t.Fatalf("after %d: record %d has epoch %d", after, i, r.Epoch)
			}
		}
	}
	if recs, err := storage.ReadWALAfterN(filepath.Join(t.TempDir(), "missing"), 0, 0); err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: %d records, %v", len(recs), err)
	}
}

// TestReadWALAfterTornTail: a torn final record reports ErrCorrupt but
// still hands back the valid tail prefix — exactly what a leader needs
// to ship everything durable while a concurrent append is mid-write.
func TestReadWALAfterTornTail(t *testing.T) {
	dir := shipWAL(t, 5, storage.DefaultWALSegmentBytes)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	appendFile(t, segs[len(segs)-1], []byte{0x20, 'h', 'a', 'l', 'f'})

	recs, err := storage.ReadWALAfterN(dir, 2, 0)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("torn tail: err %v, want ErrCorrupt", err)
	}
	if len(recs) != 3 || recs[0].Epoch != 3 || recs[2].Epoch != 5 {
		t.Fatalf("torn tail: records %v, want epochs 3..5", recs)
	}
}

// TestWALFirstEpoch: the truncation horizon moves as checkpoints delete
// covered segments, and disappears when the log empties.
func TestWALFirstEpoch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, _, err := storage.OpenWAL(dir, storage.WALOptions{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, ok := w.FirstEpoch(); ok {
		t.Fatal("empty log reports a first epoch")
	}
	for e := uint64(1); e <= 12; e++ {
		if err := w.Append(e, 1, []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if first, ok := w.FirstEpoch(); !ok || first != 1 {
		t.Fatalf("first epoch = %d,%v, want 1", first, ok)
	}
	if err := w.TruncateThrough(7); err != nil {
		t.Fatal(err)
	}
	first, ok := w.FirstEpoch()
	if !ok || first > 8 {
		t.Fatalf("after truncation through 7: first = %d,%v, want <= 8", first, ok)
	}
	if err := w.TruncateThrough(12); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.FirstEpoch(); ok {
		t.Fatal("fully truncated log still reports a first epoch")
	}
	// Reopening recomputes the horizon from the surviving files.
	w.Close()
	w2, _, err := storage.OpenWAL(dir, storage.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, ok := w2.FirstEpoch(); ok {
		t.Fatal("reopened empty log reports a first epoch")
	}
}

// TestReadWALAfterN: the chunked tail read returns at most max records,
// still contiguous from the cut, and a full chunk is valid even when
// damage lurks in segments past it.
func TestReadWALAfterN(t *testing.T) {
	const n = 20
	dir := shipWAL(t, n, 64)
	recs, err := storage.ReadWALAfterN(dir, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Epoch != 4 || recs[4].Epoch != 8 {
		t.Fatalf("chunk = %v, want epochs 4..8", recs)
	}
	if recs, err := storage.ReadWALAfterN(dir, 3, 100); err != nil || len(recs) != n-3 {
		t.Fatalf("oversized cap: %d records, %v", len(recs), err)
	}
	// Corrupt the last segment: a chunk wholly before it is unaffected.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	appendFile(t, segs[len(segs)-1], []byte{0x30, 'x'})
	recs, err = storage.ReadWALAfterN(dir, 0, 3)
	if err != nil || len(recs) != 3 || recs[0].Epoch != 1 {
		t.Fatalf("chunk before damage: %d records, %v", len(recs), err)
	}
	// An uncapped read still reports the damage alongside the prefix.
	if _, err := storage.ReadWALAfterN(dir, 0, 0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("uncapped read of damaged log: %v, want ErrCorrupt", err)
	}
}
