package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/storage"
)

// fig1Snapshot returns the serialized Fig. 1 graph, the seed every
// corruption test mutates.
func fig1Snapshot(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Write(&buf, fig1.Graph()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot is the decoder's robustness contract: for arbitrary
// input bytes, Read must never panic, and every failure on in-memory data
// must be ErrCorrupt — nothing else can leak out of the decoding layer.
// Inputs that do decode are canonical, so they must re-encode to their own
// bytes, up to the checksum (round-trip closure; Read ignores what
// follows the checksum).
func FuzzReadSnapshot(f *testing.F) {
	valid := fig1Snapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("EGPT"))
	f.Add(valid[:len(valid)/2]) // truncated
	mid := append([]byte(nil), valid...)
	mid[len(mid)/2] ^= 0xff // flipped payload byte
	f.Add(mid)
	ver := append([]byte(nil), valid...)
	ver[4] = 0x2a // future version
	f.Add(ver)
	for _, data := range hostileCounts() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := storage.Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := storage.Write(&buf, g); err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding a decoded snapshot changed its bytes")
		}
	})
}

// FuzzReplayWAL is the WAL decoder's robustness contract: for an
// arbitrary segment file, ReplayWAL must never panic, every failure must
// classify as ErrCorrupt (a local file never produces transport errors),
// accepted records must satisfy the contiguity invariant, and the decode
// must be deterministic — replaying the same bytes twice yields the same
// prefix. A durable start reads the log once, through OpenWAL, which
// must hand back that same prefix and trim the log to exactly it, so a
// later replay decodes it with no error.
func FuzzReplayWAL(f *testing.F) {
	recordDir := f.TempDir()
	w, _, err := storage.OpenWAL(recordDir, storage.WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for e := uint64(1); e <= 4; e++ {
		if err := w.Append(e, byte(e), bytes.Repeat([]byte{byte(e)}, int(e)*7)); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	segs, err := filepath.Glob(filepath.Join(recordDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("want one seed segment: %v (%v)", segs, err)
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("EGWL"))
	f.Add(valid[:len(valid)/2]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000000000000000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := storage.ReplayWAL(dir)
		if err != nil && !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("unclassified replay error: %v", err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Epoch != recs[i-1].Epoch+1 {
				t.Fatalf("replay accepted an epoch gap: %d after %d", recs[i].Epoch, recs[i-1].Epoch)
			}
		}
		again, err2 := storage.ReplayWAL(dir)
		if (err == nil) != (err2 == nil) || len(again) != len(recs) {
			t.Fatalf("replay not deterministic: %d/%v vs %d/%v", len(recs), err, len(again), err2)
		}
		w, opened, err := storage.OpenWAL(dir, storage.WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		w.Close()
		trimmed, err := storage.ReplayWAL(dir)
		if err != nil || len(opened) != len(recs) || len(trimmed) != len(recs) {
			t.Fatalf("OpenWAL handed back %d records and left %d (%v), want ReplayWAL's %d", len(opened), len(trimmed), err, len(recs))
		}
		for i := range recs {
			if opened[i].Epoch != recs[i].Epoch || !bytes.Equal(opened[i].Payload, recs[i].Payload) {
				t.Fatalf("OpenWAL's record %d differs from ReplayWAL's", i)
			}
		}
	})
}

// FuzzWALStream is the shipped-stream decoder's robustness contract —
// the replication twin of FuzzReplayWAL. For arbitrary wire bytes,
// WALStreamReader must never panic; every failure must classify as
// ErrCorrupt (an in-memory stream has no transport errors); accepted
// records must be epoch-contiguous; and decoding must be idempotent:
// re-encoding the accepted prefix with AppendWALRecord and decoding it
// again yields the same records with no error, so a follower relaying a
// feed downstream cannot alter it.
func FuzzWALStream(f *testing.F) {
	var valid []byte
	for e := uint64(1); e <= 4; e++ {
		valid = append(valid, storage.AppendWALRecord(nil, storage.WALRecord{
			Epoch: e, Kind: byte(e), Payload: bytes.Repeat([]byte{byte(e)}, int(e)*7),
		})...)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2]) // torn mid-record
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{0x00})                                      // zero-length record stub
	f.Add(storage.AppendWALRecord(nil, storage.WALRecord{})) // epoch 0, empty payload

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll := func(stream []byte) ([]storage.WALRecord, error) {
			sr := storage.NewWALStreamReader(bytes.NewReader(stream))
			var recs []storage.WALRecord
			for {
				rec, err := sr.Next()
				if err == io.EOF {
					return recs, nil
				}
				if err != nil {
					return recs, err
				}
				recs = append(recs, rec)
			}
		}
		recs, err := decodeAll(data)
		if err != nil && !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("unclassified stream error: %v", err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Epoch != recs[i-1].Epoch+1 {
				t.Fatalf("stream accepted an epoch gap: %d after %d", recs[i].Epoch, recs[i-1].Epoch)
			}
		}
		var reenc []byte
		for _, r := range recs {
			reenc = append(reenc, storage.AppendWALRecord(nil, r)...)
		}
		again, err2 := decodeAll(reenc)
		if err2 != nil || len(again) != len(recs) {
			t.Fatalf("re-encoded prefix does not decode cleanly: %d/%v vs %d", len(again), err2, len(recs))
		}
		for i := range recs {
			if again[i].Epoch != recs[i].Epoch || again[i].Kind != recs[i].Kind || !bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("record %d changed across re-encode: %+v vs %+v", i, again[i], recs[i])
			}
		}
	})
}

// TestReadCorruptExhaustive flips every byte of a valid snapshot in turn
// and truncates it at every prefix: each mutation must fail loudly — the
// checksum guarantees no single-byte flip slips through — and every
// failure must be ErrCorrupt, never a panic or a raw io error.
func TestReadCorruptExhaustive(t *testing.T) {
	valid := fig1Snapshot(t)
	check := func(data []byte, what string) {
		t.Helper()
		_, err := storage.Read(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: decoded successfully, want failure", what)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: unclassified error: %v", what, err)
		}
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x01
		check(mut, fmt.Sprintf("flip byte %d", i))
	}
	for i := 0; i < len(valid); i++ {
		check(valid[:i], fmt.Sprintf("truncate at %d", i))
	}
}
