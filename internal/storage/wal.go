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
// held to the snapshot codec's ErrCorrupt discipline: any byte that does
// not decode to exactly this shape classifies as ErrCorrupt, never as a
// structurally-valid-but-wrong record. One walk (scanWAL) reads the
// segments, decoding each record through WALStreamReader, for ReplayWAL,
// the shipping tail read and OpenWAL. A crash mid-append leaves a torn
// tail; replay stops at the last intact record (the longest valid
// prefix), and OpenWAL truncates the tear before appending anything after
// it and hands back the prefix, so a recovery reads the log once.
//
// Epochs are contiguous: Append enforces lastEpoch+1, replay re-verifies
// it across segment boundaries, and TruncateThrough deletes segments
// wholly covered by a checkpoint so the log stays bounded by one
// checkpoint interval of writes.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	size        int64 // bytes of the valid prefix, header included, when scanned
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

// walScan is what one pass over a WAL directory found.
type walScan struct {
	segs []walSeg    // the segments read, in epoch order
	rest []string    // when the scan failed, the names of the segment files after the damaged one
	recs []WALRecord // the accepted records from the first epoch asked for on
}

// scanWAL is the one walk over a WAL directory: it reads dir's segments
// in epoch order through one WALStreamReader, so epochs must continue
// across segment boundaries, and keeps the records with epochs from
// from on, at most max of them (max <= 0 means no bound). Whole segments
// below from are skipped by name (segment names carry their first
// epoch), and the scan stops as soon as it holds max records. A missing
// directory is an empty log.
//
// The error is nil when every segment read decoded cleanly to its end.
// It wraps ErrCorrupt when a segment's header or tail does not decode:
// the scan stops in that segment, the last of segs, and the records are
// still the valid prefix. Anything else is an I/O failure.
func scanWAL(dir string, from uint64, max int) (walScan, error) {
	var s walScan
	names, err := walSegFiles(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return s, err
	}
	// Skip a segment when the next one starts at or before from: every
	// record it holds is then below from. The last segment is always read.
	start := 0
	for i := 1; i < len(names); i++ {
		if first, _ := strconv.ParseUint(strings.TrimSuffix(names[i], ".wal"), 10, 64); first <= from {
			start = i
		}
	}
	sr := &WALStreamReader{}
	for i := start; i < len(names); i++ {
		seg, err := scanSegment(filepath.Join(dir, names[i]), sr, from, max, &s.recs)
		s.segs = append(s.segs, seg)
		if err != nil {
			s.rest = names[i+1:]
			return s, fmt.Errorf("segment %s: %w", names[i], err)
		}
		if max > 0 && len(s.recs) >= max {
			break
		}
	}
	return s, nil
}

// scanSegment checks the header of the segment at path, then decodes
// its records through sr, appending the ones with epochs from from on to
// recs until recs holds max (max <= 0 means no bound). It returns the
// segment's record range and the length of its valid prefix.
func scanSegment(path string, sr *WALStreamReader, from uint64, max int, recs *[]WALRecord) (walSeg, error) {
	seg := walSeg{path: path}
	f, err := os.Open(path)
	if err != nil {
		return seg, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(len(walMagic) + binary.MaxVarintLen64)
	if err != nil && err != io.EOF {
		return seg, err
	}
	if len(head) < len(walMagic) || [4]byte(head) != walMagic {
		return seg, fmt.Errorf("%w: bad WAL segment magic", ErrCorrupt)
	}
	ver, n := binary.Uvarint(head[len(walMagic):])
	if n <= 0 || ver != WALVersion {
		return seg, fmt.Errorf("%w: unsupported WAL segment version", ErrCorrupt)
	}
	hdr := len(walMagic) + n
	br.Discard(hdr) // cannot fail: Peek buffered these bytes
	seg.size = int64(hdr)
	sr.r, sr.n = br, 0
	for max <= 0 || len(*recs) < max {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return seg, fmt.Errorf("at offset %d: %w", seg.size, err)
		}
		if seg.records == 0 {
			seg.first = rec.Epoch
		}
		seg.last = rec.Epoch
		seg.records++
		seg.size = int64(hdr) + sr.n
		if rec.Epoch >= from {
			*recs = append(*recs, rec)
		}
	}
	return seg, nil
}

// ReplayWAL reads dir's segments in epoch order and returns the longest
// valid prefix of records. A missing directory is an empty log. The
// returned error is nil when every segment decoded cleanly to its end,
// and wraps ErrCorrupt when a torn or damaged tail cut the replay short
// — the returned records are still the valid prefix, which is exactly
// the recoverable state (a torn tail is a batch that was never
// acknowledged). Any other error is a real I/O failure.
func ReplayWAL(dir string) ([]WALRecord, error) {
	s, err := scanWAL(dir, 0, 0)
	return s.recs, err
}

// OpenWAL opens (creating if needed) the WAL directory for appending,
// and returns the records its scan of the existing segments accepted:
// exactly ReplayWAL's prefix, so a recovery replays them without reading
// the log again. A torn tail is truncated away and any segments past the
// valid prefix are deleted, so the next Append lands immediately after
// the last intact record instead of after garbage no replay would ever
// reach.
func OpenWAL(dir string, opts WALOptions) (*WAL, []WALRecord, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultWALSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s, err := scanWAL(dir, 0, 0)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		return nil, nil, err
	}
	w := &WAL{dir: dir, opts: opts, closed: s.segs}
	if err != nil {
		// The valid prefix ends in the last segment read: trim its tear (or
		// drop it if nothing valid remains) and delete every segment after it.
		drop, last := s.rest, len(w.closed)-1
		if seg := w.closed[last]; seg.records == 0 {
			w.closed, drop = w.closed[:last], append(drop, filepath.Base(seg.path))
		} else if err := os.Truncate(seg.path, seg.size); err != nil {
			return nil, nil, err
		}
		for _, name := range drop {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, err
			}
		}
		if !opts.NoSync {
			if err := syncDir(dir); err != nil {
				return nil, nil, err
			}
		}
	}
	if n := len(s.recs); n > 0 {
		w.last, w.hasLast = s.recs[n-1].Epoch, true
	}
	// Reopen the final segment for appending; earlier ones stay closed.
	if n := len(w.closed); n > 0 {
		seg := w.closed[n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		w.f, w.size, w.active, w.closed = f, seg.size, seg, w.closed[:n-1]
	}
	return w, s.recs, nil
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

	// The bytes in a segment are the bytes a replication stream ships, by
	// construction.
	buf := AppendWALRecord(nil, WALRecord{Epoch: epoch, Kind: kind, Payload: payload})

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
