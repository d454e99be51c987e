package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/storage"
)

// appendAll writes records to a fresh WAL in dir and closes it.
func appendAll(t testing.TB, dir string, opts storage.WALOptions, recs []storage.WALRecord) {
	t.Helper()
	w, _, err := storage.OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r.Epoch, r.Kind, r.Payload); err != nil {
			t.Fatalf("append epoch %d: %v", r.Epoch, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// testRecords builds a batch sequence with payload shapes that exercise
// the framing: empty, single-byte, longer-than-one-varint-byte, and
// bytes that look like WAL structure.
func testRecords(n int) []storage.WALRecord {
	recs := make([]storage.WALRecord, n)
	for i := range recs {
		var payload []byte
		switch i % 4 {
		case 0:
			payload = nil
		case 1:
			payload = []byte{0xff}
		case 2:
			payload = bytes.Repeat([]byte{byte(i), 0x00, 0x7f}, 60) // >127 bytes: two-byte recLen varint
		case 3:
			payload = []byte("EGWL\x01\x05fake record")
		}
		recs[i] = storage.WALRecord{Epoch: uint64(i + 1), Kind: byte(i%3 + 1), Payload: payload}
	}
	return recs
}

func sameRecords(t *testing.T, got, want []storage.WALRecord, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Epoch != want[i].Epoch || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: record %d differs: got {%d %d %x}, want {%d %d %x}",
				what, i, got[i].Epoch, got[i].Kind, got[i].Payload, want[i].Epoch, want[i].Kind, want[i].Payload)
		}
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords(9)
	appendAll(t, dir, storage.WALOptions{}, want)
	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	sameRecords(t, got, want, "round trip")
}

func TestWALReplayMissingDirIsEmpty(t *testing.T) {
	recs, err := storage.ReplayWAL(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: %d records, err %v; want empty, nil", len(recs), err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	want := testRecords(12)
	// Tiny threshold: every record lands in (roughly) its own segment.
	appendAll(t, dir, storage.WALOptions{SegmentBytes: 1}, want)
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want several", len(segs))
	}
	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay across segments: %v", err)
	}
	sameRecords(t, got, want, "multi-segment replay")
}

func TestWALAppendEpochDiscipline(t *testing.T) {
	w, _, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Empty log accepts any starting epoch (recovery after a
	// checkpoint-only restart starts mid-sequence).
	if err := w.Append(41, 1, []byte("a")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := w.Append(43, 1, []byte("b")); err == nil {
		t.Fatal("gap accepted: epoch 43 after 41")
	}
	if err := w.Append(41, 1, []byte("b")); err == nil {
		t.Fatal("repeat accepted: epoch 41 after 41")
	}
	if err := w.Append(42, 1, []byte("b")); err != nil {
		t.Fatalf("contiguous append: %v", err)
	}
	if last, ok := w.LastEpoch(); !ok || last != 42 {
		t.Fatalf("LastEpoch = %d,%v, want 42,true", last, ok)
	}
}

func TestWALReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, storage.WALOptions{}, testRecords(3))

	w, _, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := w.LastEpoch(); !ok || last != 3 {
		t.Fatalf("reopened LastEpoch = %d,%v, want 3,true", last, ok)
	}
	if err := w.Append(5, 1, nil); err == nil {
		t.Fatal("reopened WAL accepted a gap")
	}
	if err := w.Append(4, 1, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay after reopen: %v", err)
	}
	want := append(testRecords(3), storage.WALRecord{Epoch: 4, Kind: 1, Payload: []byte("resumed")})
	sameRecords(t, got, want, "reopen")
}

// TestWALOpenTrimsTornTail is the crash-mid-append scenario: garbage
// after the last intact record (a torn write) must be dropped by
// OpenWAL so that post-recovery appends land after real data, and the
// whole log replays cleanly again.
func TestWALOpenTrimsTornTail(t *testing.T) {
	dir := t.TempDir()
	want := testRecords(4)
	appendAll(t, dir, storage.WALOptions{}, want)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 'h', 'a', 'l', 'f'}); err != nil { // half a record
		t.Fatal(err)
	}
	f.Close()

	if _, err := storage.ReplayWAL(dir); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("torn tail replay error = %v, want ErrCorrupt", err)
	}

	w, _, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, 2, []byte("after crash")); err != nil {
		t.Fatalf("append after trim: %v", err)
	}
	w.Close()

	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay after trim+append: %v", err)
	}
	sameRecords(t, got, append(want, storage.WALRecord{Epoch: 5, Kind: 2, Payload: []byte("after crash")}), "trimmed")
}

// TestWALOpenDropsSegmentsPastCorruption: when an early segment is
// damaged, everything after it is unreachable by replay (the prefix
// ends at the damage), so OpenWAL deletes it rather than appending a
// new record after a hole.
func TestWALOpenDropsSegmentsPastCorruption(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, storage.WALOptions{SegmentBytes: 1}, testRecords(6))
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	// Flip a payload byte in the middle segment.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	prefix, err := storage.ReplayWAL(dir)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt", err)
	}

	w, _, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last, ok := w.LastEpoch()
	if !ok || last != uint64(len(prefix)) {
		t.Fatalf("LastEpoch after trim = %d,%v, want %d", last, ok, len(prefix))
	}
	if err := w.Append(last+1, 1, []byte("resume")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay after drop: %v", err)
	}
	sameRecords(t, got, append(testRecords(len(prefix)), storage.WALRecord{Epoch: last + 1, Kind: 1, Payload: []byte("resume")}), "post-drop")
}

func TestWALTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, _, err := storage.OpenWAL(dir, storage.WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	for _, r := range recs {
		if err := w.Append(r.Epoch, r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	countSegs := func() int {
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	before := countSegs()
	if err := w.TruncateThrough(7); err != nil {
		t.Fatal(err)
	}
	after := countSegs()
	if after >= before {
		t.Fatalf("truncation did not shrink the log: %d → %d segments", before, after)
	}
	got, err := storage.ReplayWAL(dir)
	if err != nil {
		t.Fatalf("replay after truncation: %v", err)
	}
	if len(got) == 0 || got[len(got)-1].Epoch != 10 {
		t.Fatalf("truncation lost the tail: %d records, last %v", len(got), got)
	}
	if got[0].Epoch > 8 {
		t.Fatalf("truncation deleted epoch 8's segment: replay starts at %d", got[0].Epoch)
	}
	sameRecords(t, got, recs[got[0].Epoch-1:], "post-truncation tail")

	// A checkpoint at the newest epoch empties the log entirely, and the
	// epoch discipline survives in memory.
	if err := w.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	if n := countSegs(); n != 0 {
		t.Fatalf("full truncation left %d segments", n)
	}
	if err := w.Append(12, 1, nil); err == nil {
		t.Fatal("gap accepted after full truncation")
	}
	if err := w.Append(11, 1, []byte("next")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err = storage.ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, []storage.WALRecord{{Epoch: 11, Kind: 1, Payload: []byte("next")}}, "after full truncation")
}

// TestReplayWALCorruptExhaustive is the crash-injection property test:
// for a recorded WAL, truncating at every byte offset and flipping every
// byte must each replay to a valid prefix of the original batches — or
// fail with ErrCorrupt — and never to a structurally valid but wrong
// batch. Mirrors TestReadCorruptExhaustive for the snapshot codec. Each
// mutation also takes the read-once path a durable start takes: OpenWAL
// must hand back exactly ReplayWAL's prefix and append the next epoch
// right after it, so a fresh replay returns the prefix and that epoch.
func TestReplayWALCorruptExhaustive(t *testing.T) {
	recordDir := t.TempDir()
	want := testRecords(6)
	appendAll(t, recordDir, storage.WALOptions{}, want)
	segs, err := filepath.Glob(filepath.Join(recordDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one recorded segment, got %v (%v)", segs, err)
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// check replays data as the only segment and asserts the prefix
	// property; fullOK says whether decoding everything cleanly is
	// acceptable for this mutation.
	check := func(t *testing.T, data []byte, fullOK bool, what string) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := storage.ReplayWAL(dir)
		if err != nil && !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: unclassified replay error: %v", what, err)
		}
		if len(got) > len(want) {
			t.Fatalf("%s: replay invented %d records", what, len(got)-len(want))
		}
		sameRecords(t, got, want[:len(got)], what)
		if err == nil && len(got) == len(want) && !fullOK {
			t.Fatalf("%s: corruption decoded cleanly to the full log", what)
		}

		w, opened, err := storage.OpenWAL(dir, storage.WALOptions{NoSync: true})
		if err != nil {
			t.Fatalf("%s: OpenWAL: %v", what, err)
		}
		sameRecords(t, opened, got, what+": OpenWAL's records")
		next := storage.WALRecord{Epoch: uint64(len(got) + 1), Kind: 1, Payload: []byte("next")}
		if err := w.Append(next.Epoch, next.Kind, next.Payload); err != nil {
			t.Fatalf("%s: append after OpenWAL: %v", what, err)
		}
		w.Close()
		again, err := storage.ReplayWAL(dir)
		if err != nil {
			t.Fatalf("%s: replay after OpenWAL and append: %v", what, err)
		}
		sameRecords(t, again, append(got[:len(got):len(got)], next), what+": replay after OpenWAL and append")
	}

	for i := 0; i <= len(valid); i++ {
		i := i
		t.Run(fmt.Sprintf("truncate/%d", i), func(t *testing.T) {
			check(t, valid[:i], i == len(valid), fmt.Sprintf("truncate at %d", i))
		})
	}
	for i := range valid {
		i := i
		t.Run(fmt.Sprintf("flip/%d", i), func(t *testing.T) {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x01
			check(t, mut, false, fmt.Sprintf("flip byte %d", i))
		})
	}
}

func TestDurableCheckpointerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := fig1.Graph()
	ck := storage.NewDurableCheckpointer(dir, "fig1", nil)

	if _, _, ok, err := storage.LoadLatestCheckpoint(dir, "fig1"); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want absent", ok, err)
	}
	if wrote, err := ck.Save(g, 3); err != nil || !wrote {
		t.Fatalf("save epoch 3: wrote=%v err=%v", wrote, err)
	}
	if wrote, err := ck.Save(g, 3); err != nil || wrote {
		t.Fatalf("same-epoch save: wrote=%v err=%v, want skip", wrote, err)
	}
	if wrote, err := ck.Save(g, 7); err != nil || !wrote {
		t.Fatalf("save epoch 7: wrote=%v err=%v", wrote, err)
	}

	loaded, epoch, ok, err := storage.LoadLatestCheckpoint(dir, "fig1")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if epoch != 7 {
		t.Fatalf("loaded epoch %d, want 7", epoch)
	}
	if loaded.Stats() != g.Stats() {
		t.Fatalf("checkpoint round trip: %v vs %v", loaded.Stats(), g.Stats())
	}
	// The superseded epoch-3 snapshot is gone.
	snaps, err := filepath.Glob(filepath.Join(dir, "fig1-*.egpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("superseded snapshots kept: %v", snaps)
	}
}

func TestDurableCheckpointerTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	w, _, err := storage.OpenWAL(filepath.Join(dir, "wal"), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for e := uint64(1); e <= 5; e++ {
		if err := w.Append(e, 1, []byte("batch")); err != nil {
			t.Fatal(err)
		}
	}
	ck := storage.NewDurableCheckpointer(dir, "g", w)
	if _, err := ck.Save(fig1.Graph(), 5); err != nil {
		t.Fatal(err)
	}
	recs, err := storage.ReplayWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("checkpoint at newest epoch left %d WAL records", len(recs))
	}
}

func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("previewtables"), 79) // ~1KB, one edge batch
	for _, bc := range []struct {
		name string
		opts storage.WALOptions
	}{
		{"sync", storage.WALOptions{}},
		{"nosync", storage.WALOptions{NoSync: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, _, err := storage.OpenWAL(b.TempDir(), bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(uint64(i+1), 1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestWALAlignTo(t *testing.T) {
	dir := t.TempDir()
	w, _, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Empty log: align establishes the base.
	if err := w.AlignTo(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(10, 1, nil); err == nil {
		t.Fatal("aligned WAL accepted a repeat of the aligned epoch")
	}
	if err := w.Append(11, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Forward align past the held records is a rewind refusal...
	if err := w.AlignTo(5); err == nil {
		t.Fatal("AlignTo rewound past a durable record")
	}
	// ...while aligning at or ahead of the durable tail is fine.
	if err := w.AlignTo(11); err != nil {
		t.Fatal(err)
	}
	if err := w.AlignTo(20); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(21, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
}
