// Write-ahead log. The snapshot codec makes a graph's *state* durable;
// the WAL makes its *mutations* durable: every applied batch is appended
// (and fsynced) before its epoch is published, so an acknowledged write
// survives a crash even if it never reached a checkpoint. Recovery is
// checkpoint + tail: load the newest snapshot, then replay the WAL
// records whose epochs follow it.
//
// Layout: a WAL is a directory of segment files named by the first epoch
// they may contain (`%020d.wal`, so lexicographic order is epoch order).
// Each segment is
//
//	magic "EGWL" | version uvarint | record*
//
// and each record is
//
//	recLen uvarint | body | CRC-32C(recLen bytes + body)
//	body := epoch uvarint | kind byte | payload
//
// the same crcWriter framing and ErrCorrupt discipline as the snapshot
// codec: any byte that does not decode to exactly this shape classifies
// as ErrCorrupt, never as a structurally-valid-but-wrong record. A crash
// mid-append leaves a torn tail; replay stops at the last intact record
// (the longest valid prefix) and OpenWAL truncates the tear before
// appending anything after it.
//
// Epochs are contiguous: Append enforces lastEpoch+1, replay re-verifies
// it across segment boundaries, and TruncateThrough deletes segments
// wholly covered by a checkpoint so the log stays bounded by one
// checkpoint interval of writes.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var walMagic = [4]byte{'E', 'G', 'W', 'L'}

// WALVersion is the current segment format version.
const WALVersion = 1

// maxWALRecord bounds one record's encoded body. Service bodies are
// capped far below this (service.DefaultMaxBodyBytes); anything larger
// in a segment is damage, not data.
const maxWALRecord = 64 << 20

// DefaultWALSegmentBytes rotates the active segment once it grows past
// this size, so truncation after a checkpoint has whole files to delete.
const DefaultWALSegmentBytes = 64 << 20

// WALRecord is one durable mutation batch: the epoch it produced, a
// caller-defined kind tag, and the replayable payload bytes. The storage
// layer treats kind and payload as opaque.
type WALRecord struct {
	Epoch   uint64
	Kind    byte
	Payload []byte
}

// WALOptions configures an opened WAL.
type WALOptions struct {
	// SegmentBytes is the rotation threshold (0 = DefaultWALSegmentBytes).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends then survive process
	// crashes (the file write is done) but not host crashes; meant for
	// benchmarks and bulk loads, not serving.
	NoSync bool
}

// WAL is an append-only log of mutation batches, safe for concurrent
// use. Obtain one with OpenWAL.
type WAL struct {
	dir  string
	opts WALOptions

	mu     sync.Mutex
	f      *os.File // active segment, nil until the next Append creates one
	size   int64    // bytes written to the active segment
	active walSeg   // meaningful iff f != nil
	closed []walSeg // fully written segments, ascending

	last    uint64 // last durable epoch
	hasLast bool

	// err is sticky: a failed write leaves an undefined tail in the
	// active segment, so no further append may run until restart.
	err error
}

// walSeg tracks one segment file and the epoch range it holds.
type walSeg struct {
	path        string
	first, last uint64 // valid iff records > 0
	records     int
}

func walSegName(first uint64) string { return fmt.Sprintf("%020d.wal", first) }

// walSegFiles lists dir's segment files in epoch order.
func walSegFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(n, ".wal") && len(n) == len(walSegName(0)) {
			if _, err := strconv.ParseUint(strings.TrimSuffix(n, ".wal"), 10, 64); err == nil {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanSegment decodes one segment's records, appending them to recs and
// enforcing epoch contiguity against expect (advanced as records are
// accepted; *haveBase false means the first record establishes the
// base). It returns the byte length of the valid prefix — header
// included — and, when the tail does not decode, an ErrCorrupt error.
func scanSegment(data []byte, expect *uint64, haveBase *bool, recs *[]WALRecord) (int, error) {
	off := 0
	if len(data) < len(walMagic) || *(*[4]byte)(data[:4]) != walMagic {
		return 0, fmt.Errorf("%w: bad WAL segment magic", ErrCorrupt)
	}
	off = len(walMagic)
	ver, n := binary.Uvarint(data[off:])
	if n <= 0 || ver != WALVersion {
		return 0, fmt.Errorf("%w: unsupported WAL segment version", ErrCorrupt)
	}
	off += n
	for off < len(data) {
		recLen, n := binary.Uvarint(data[off:])
		if n <= 0 || recLen > maxWALRecord {
			return off, fmt.Errorf("%w: WAL record length at offset %d", ErrCorrupt, off)
		}
		end := off + n + int(recLen)
		if end+4 > len(data) {
			return off, fmt.Errorf("%w: torn WAL record at offset %d", ErrCorrupt, off)
		}
		if crc32.Checksum(data[off:end], castagnoli) != binary.BigEndian.Uint32(data[end:end+4]) {
			return off, fmt.Errorf("%w: WAL record checksum mismatch at offset %d", ErrCorrupt, off)
		}
		body := data[off+n : end]
		epoch, n2 := binary.Uvarint(body)
		if n2 <= 0 || n2 >= len(body) {
			return off, fmt.Errorf("%w: WAL record body at offset %d", ErrCorrupt, off)
		}
		if *haveBase && epoch != *expect {
			return off, fmt.Errorf("%w: WAL epoch %d at offset %d, want %d", ErrCorrupt, epoch, off, *expect)
		}
		*haveBase = true
		*expect = epoch + 1
		*recs = append(*recs, WALRecord{
			Epoch:   epoch,
			Kind:    body[n2],
			Payload: append([]byte(nil), body[n2+1:]...),
		})
		off = end + 4
	}
	return off, nil
}

// ReplayWAL reads dir's segments in epoch order and returns the longest
// valid prefix of records. A missing directory is an empty log. The
// returned error is nil when every segment decoded cleanly to its end,
// and wraps ErrCorrupt when a torn or damaged tail cut the replay short
// — the returned records are still the valid prefix, which is exactly
// the recoverable state (a torn tail is a batch that was never
// acknowledged). Any other error is a real I/O failure.
func ReplayWAL(dir string) ([]WALRecord, error) {
	names, err := walSegFiles(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var (
		recs     []WALRecord
		expect   uint64
		haveBase bool
	)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return recs, err
		}
		if _, err := scanSegment(data, &expect, &haveBase, &recs); err != nil {
			return recs, fmt.Errorf("segment %s: %w", name, err)
		}
	}
	return recs, nil
}

// OpenWAL opens (creating if needed) the WAL directory for appending.
// Existing segments are scanned exactly like ReplayWAL; a torn tail is
// truncated away and any segments past the valid prefix are deleted, so
// the next Append lands immediately after the last intact record instead
// of after garbage no replay would ever reach.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultWALSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := walSegFiles(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts}
	var (
		expect   uint64 // next epoch the scan will accept
		haveBase bool
	)
	for i, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var segRecs []WALRecord
		validLen, scanErr := scanSegment(data, &expect, &haveBase, &segRecs)
		seg := walSeg{path: path, records: len(segRecs)}
		if len(segRecs) > 0 {
			seg.first, seg.last = segRecs[0].Epoch, segRecs[len(segRecs)-1].Epoch
		}
		if scanErr != nil {
			// Trim the tear (or drop the segment if nothing valid remains),
			// delete everything past it, and stop: the valid prefix ends here.
			if len(segRecs) == 0 {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
			} else {
				if err := os.Truncate(path, int64(validLen)); err != nil {
					return nil, err
				}
				w.closed = append(w.closed, seg)
			}
			for _, later := range names[i+1:] {
				if err := os.Remove(filepath.Join(dir, later)); err != nil {
					return nil, err
				}
			}
			if !opts.NoSync {
				if err := syncDir(dir); err != nil {
					return nil, err
				}
			}
			break
		}
		w.closed = append(w.closed, seg)
	}
	if haveBase {
		w.last, w.hasLast = expect-1, true
	}
	// Reopen the final segment for appending; earlier ones stay closed.
	if n := len(w.closed); n > 0 {
		seg := w.closed[n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.f, w.size, w.active = f, st.Size(), seg
		w.closed = w.closed[:n-1]
	}
	return w, nil
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// LastEpoch returns the last durable epoch and whether any record has
// ever been appended (in this process or a previous one).
func (w *WAL) LastEpoch() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last, w.hasLast
}

// Append logs one batch and syncs it to stable storage before returning:
// when Append returns nil the record survives a crash. Epochs must be
// contiguous — epoch is required to be exactly LastEpoch+1 (any value is
// accepted while the log is empty, so the first record after a
// checkpoint-only recovery picks up at checkpointEpoch+1). A failed
// write poisons the WAL: the segment tail is undefined, so every later
// Append fails with the same error until the process restarts and
// OpenWAL trims the tear.
func (w *WAL) Append(epoch uint64, kind byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.hasLast && epoch != w.last+1 {
		return fmt.Errorf("storage: WAL append epoch %d, want %d", epoch, w.last+1)
	}
	if w.f != nil && w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.openSegmentLocked(epoch); err != nil {
			return err
		}
	}

	// Shared with EncodeWALRecord: the bytes in a segment are the bytes a
	// replication stream ships, by construction.
	buf := encodeWALRecord(nil, epoch, kind, payload)

	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("storage: WAL append: %w", err)
		return w.err
	}
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("storage: WAL sync: %w", err)
			return w.err
		}
	}
	w.size += int64(len(buf))
	if w.active.records == 0 {
		w.active.first = epoch
	}
	w.active.last = epoch
	w.active.records++
	w.last, w.hasLast = epoch, true
	return nil
}

// openSegmentLocked creates a fresh segment named for first and writes
// its header.
func (w *WAL) openSegmentLocked(first uint64) error {
	path := filepath.Join(w.dir, walSegName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [len(walMagic) + binary.MaxVarintLen64]byte
	copy(hdr[:], walMagic[:])
	n := len(walMagic) + binary.PutUvarint(hdr[len(walMagic):], WALVersion)
	if _, err := f.Write(hdr[:n]); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
		// The dirent too: a synced record inside a file whose creation
		// never reached disk is just as lost.
		if err := syncDir(w.dir); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	w.f, w.size = f, int64(n)
	w.active = walSeg{path: path}
	return nil
}

// rotateLocked closes the active segment; the next Append opens a new
// one named for its epoch.
func (w *WAL) rotateLocked() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.closed = append(w.closed, w.active)
	w.f, w.size = nil, 0
	return err
}

// TruncateThrough deletes every segment whose records all have epochs
// <= epoch — i.e. mutations a checkpoint at that epoch already contains.
// The active segment is rotated (and deleted) too when fully covered, so
// a checkpoint taken at the newest epoch empties the log; a segment
// straddling the boundary is kept whole (replay filters by epoch, so
// correctness never depends on truncation).
func (w *WAL) TruncateThrough(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil && w.active.records > 0 && w.active.last <= epoch {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	kept := w.closed[:0]
	removed := false
	for _, seg := range w.closed {
		if seg.records == 0 || seg.last <= epoch {
			if err := os.Remove(seg.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, seg)
	}
	w.closed = kept
	if removed && !w.opts.NoSync {
		// Make the unlinks durable: a power loss resurrecting only some
		// deleted segments could leave a replay-breaking epoch gap between
		// a stale survivor and the live tail.
		return syncDir(w.dir)
	}
	return nil
}

// AlignTo re-bases the contiguity expectation so the next Append must
// carry epoch+1. Recovery uses it when the replayable log ends behind
// the recovered epoch — an empty log after a checkpoint-only restart, or
// a corrupt tail wholly covered by the checkpoint — so the first
// post-recovery batch appends cleanly instead of failing the
// contiguity check against a stale last epoch. It refuses to rewind
// past records the log still holds: those would become an epoch gap no
// replay could cross.
func (w *WAL) AlignTo(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hasLast && w.last > epoch {
		return fmt.Errorf("storage: WAL AlignTo(%d) behind durable epoch %d", epoch, w.last)
	}
	w.last, w.hasLast = epoch, true
	return nil
}

// Close closes the active segment file. The WAL must not be used after.
// Closing a nil WAL (a volatile graph's) does nothing.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
