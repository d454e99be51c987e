// Package storage provides a compact binary snapshot codec for entity
// graphs. The paper loaded its Freebase dump into MySQL once and then ran
// all preview computations against in-memory structures; the snapshot plays
// the same role here — generate or parse a graph once, persist it, and
// reload it instantly for repeated experiments.
//
// Format (all integers unsigned varints, strings length-prefixed):
//
//	magic "EGPT" | version | type table | relationship-type table |
//	entity table (name + type ids) | edge table (from, rel, to) |
//	CRC-32C of everything before the checksum
//
// Edge endpoints are delta-friendly small ints; a 200K-edge domain snapshot
// is a few MB and loads in milliseconds.
//
// Write only ever serializes a built graph, so every snapshot it writes is
// in canonical form: unique type names, unique (name, from, to)
// relationship keys, unique entity names, non-empty strictly ascending
// entity type lists, every edge endpoint bearing its relationship type's
// endpoint type, and every varint in its shortest encoding. Read rejects
// any other input as ErrCorrupt rather than normalizing it, so Write of a
// snapshot Read accepted reproduces its bytes exactly. Read decodes
// straight into graph.Assemble's parts and never trusts a header count
// with memory: a table is pre-sized to at most 2^16 entries and grows
// only as its records decode.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/uta-db/previewtables/internal/graph"
)

var magic = [4]byte{'E', 'G', 'P', 'T'}

// Version is the current snapshot format version.
const Version = 1

// ErrCorrupt is returned when a snapshot fails structural or checksum
// validation.
var ErrCorrupt = errors.New("storage: corrupt snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	buf [binary.MaxVarintLen64]byte
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(p); err != nil {
		cw.err = err
		return
	}
	cw.crc.Write(p)
}

func (cw *crcWriter) uvarint(v uint64) {
	n := binary.PutUvarint(cw.buf[:], v)
	cw.write(cw.buf[:n])
}

func (cw *crcWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	cw.write([]byte(s))
}

// Write serializes g to w.
func Write(w io.Writer, g *graph.EntityGraph) error {
	cw := &crcWriter{w: bufio.NewWriter(w), crc: crc32.New(castagnoli)}
	cw.write(magic[:])
	cw.uvarint(Version)

	cw.uvarint(uint64(g.NumTypes()))
	for i := 0; i < g.NumTypes(); i++ {
		cw.str(g.TypeName(graph.TypeID(i)))
	}
	cw.uvarint(uint64(g.NumRelTypes()))
	for i := 0; i < g.NumRelTypes(); i++ {
		rt := g.RelType(graph.RelTypeID(i))
		cw.str(rt.Name)
		cw.uvarint(uint64(rt.From))
		cw.uvarint(uint64(rt.To))
	}
	cw.uvarint(uint64(g.NumEntities()))
	for i := 0; i < g.NumEntities(); i++ {
		e := g.Entity(graph.EntityID(i))
		cw.str(e.Name)
		cw.uvarint(uint64(len(e.Types)))
		for _, t := range e.Types {
			cw.uvarint(uint64(t))
		}
	}
	cw.uvarint(uint64(g.NumEdges()))
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		cw.uvarint(uint64(e.From))
		cw.uvarint(uint64(e.Rel))
		cw.uvarint(uint64(e.To))
	}
	if cw.err != nil {
		return cw.err
	}
	// Trailing checksum (not itself checksummed).
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], cw.crc.Sum32())
	if _, err := cw.w.Write(sum[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// readBuffer is the decoder's chunk size: every chunk it consumes is
// folded into the checksum in one crc32.Update call.
const readBuffer = 64 << 10

// presizeCap bounds how many elements a header count may pre-size.
const presizeCap = 1 << 16

// grow makes room in s for one more of count declared elements. A table
// starts at min(count, presizeCap) entries and then doubles, never past
// count, as its records decode: an honest table reaches its full size in
// a few copies, and a hostile count cannot allocate memory the input does
// not back with bytes.
func grow[T any](s []T, count uint64) []T {
	if len(s) < cap(s) {
		return s
	}
	n := min(max(uint64(len(s)), presizeCap), count-uint64(len(s)))
	return slices.Grow(s, int(n))
}

// maxName bounds a decoded name's length.
const maxName = 1 << 20

// decoder reads a snapshot through one buffer: buf[:pos] holds consumed
// bytes not yet folded into crc, buf[pos:end] unread ones. The first
// failure sticks in err, and every read after it returns zero values.
type decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	crc      uint32
	err      error
	// ioErr records a genuine transport failure of the underlying reader
	// (anything but running out of bytes), so Read can keep it apart from
	// data corruption.
	ioErr error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt records a structural violation.
func (d *decoder) corrupt(format string, args ...any) {
	d.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// fill makes at least need bytes available at buf[pos:]: it folds the
// consumed bytes into the checksum, moves the unread ones to the front
// (growing the buffer only for a string longer than it), and reads no
// more than the underlying reader has ready once need bytes are in. It
// reports whether they are; a failure sticks in err.
func (d *decoder) fill(need int) bool {
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[:d.pos])
	if need > len(d.buf) {
		d.buf = append(make([]byte, 0, need), d.buf[d.pos:d.end]...)[:need]
	} else {
		copy(d.buf, d.buf[d.pos:d.end])
	}
	d.end -= d.pos
	d.pos = 0
	n, err := io.ReadAtLeast(d.r, d.buf[d.end:], need-d.end)
	d.end += n
	if err != nil {
		if err != io.EOF && err != io.ErrUnexpectedEOF && d.ioErr == nil {
			d.ioErr = err
		}
		d.fail(err)
		return false
	}
	return true
}

// next consumes the next n bytes and returns them; the view is valid
// until the next read.
func (d *decoder) next(n int) []byte {
	if d.err != nil || d.end-d.pos < n && !d.fill(n) {
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// uvarint decodes one unsigned varint in its shortest encoding, the only
// one Write produces: a longer encoding of the same value would not
// re-encode to the bytes it came from.
func (d *decoder) uvarint() uint64 {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.err != nil || d.pos == d.end && !d.fill(1) {
			return 0
		}
		b := d.buf[d.pos]
		d.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			if b == 0 && i > 0 {
				d.corrupt("non-minimal varint")
				return 0
			}
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	d.corrupt("varint overflows 64 bits")
	return 0
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > maxName {
		d.corrupt("string length %d exceeds limit", n)
		return ""
	}
	return string(d.next(int(n)))
}

// count decodes a table's record count, which may be at most limit.
func (d *decoder) count(table string, limit uint64) uint64 {
	n := d.uvarint()
	if n > limit {
		d.corrupt("%s count %d", table, n)
		return 0
	}
	return n
}

// Read deserializes a snapshot. The checksum is verified, and the
// decoded parts go to graph.Assemble as they are, so a successfully read
// snapshot is in canonical form: Write reproduces its bytes exactly. Any
// violation of that form is ErrCorrupt (see the package doc).
//
// A transport error of r passes through untouched; everything else —
// truncation, varint overflow, structural violations — means the bytes
// are not a valid snapshot and wraps ErrCorrupt, so callers (and fuzzing)
// can rely on errors.Is.
func Read(r io.Reader) (*graph.EntityGraph, error) {
	d := &decoder{r: r, buf: make([]byte, readBuffer)}
	g, err := d.snapshot()
	switch {
	case err == nil:
		return g, nil
	case d.ioErr != nil:
		return nil, d.ioErr
	case errors.Is(err, ErrCorrupt):
		return nil, err
	}
	return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
}

func (d *decoder) snapshot() (*graph.EntityGraph, error) {
	if m := d.next(len(magic)); d.err == nil && [4]byte(m) != magic {
		d.corrupt("bad magic")
	}
	if ver := d.uvarint(); d.err == nil && ver != Version {
		// Classified as corrupt: with only one version ever written, any
		// other value is a damaged byte, not a future format. Revisit when
		// Version 2 exists (an unsupported-but-valid file would deserve its
		// own error).
		d.corrupt("unsupported snapshot version %d", ver)
	}

	nTypes := d.count("type", 1<<24)
	var types []string
	for i := uint64(0); i < nTypes && d.err == nil; i++ {
		types = append(grow(types, nTypes), d.str())
	}

	nRels := d.count("relationship", 1<<24)
	var rels []graph.RelType
	for i := uint64(0); i < nRels && d.err == nil; i++ {
		name, from, to := d.str(), d.uvarint(), d.uvarint()
		if from >= nTypes || to >= nTypes {
			d.corrupt("relationship endpoint out of range")
		}
		rels = append(grow(rels, nRels), graph.RelType{Name: name, From: graph.TypeID(from), To: graph.TypeID(to)})
	}

	nEnts := d.count("entity", 1<<31)
	var ents []graph.Entity
	var slab []graph.TypeID
	for i := uint64(0); i < nEnts && d.err == nil; i++ {
		name, nt := d.str(), d.uvarint()
		if nt == 0 || nt > nTypes {
			d.corrupt("entity type count %d", nt)
		}
		off := len(slab)
		for j := uint64(0); j < nt && d.err == nil; j++ {
			t := d.uvarint()
			if t >= nTypes {
				d.corrupt("entity type out of range")
			}
			slab = append(slab, graph.TypeID(t))
		}
		// The slab may still move as it grows; each entity's type list is
		// cut from the final one below. Until then it keeps its length.
		ents = append(grow(ents, nEnts), graph.Entity{Name: name, Types: slab[off:]})
	}
	off := 0
	for i := range ents {
		n := len(ents[i].Types)
		ents[i].Types = slab[off : off+n : off+n]
		off += n
	}

	nEdges := d.count("edge", 1<<31)
	var edges []graph.Edge
	for i := uint64(0); i < nEdges && d.err == nil; i++ {
		from, rel, to := d.uvarint(), d.uvarint(), d.uvarint()
		if from >= nEnts || to >= nEnts || rel >= nRels {
			d.corrupt("edge reference out of range")
		}
		edges = append(grow(edges, nEdges), graph.Edge{From: graph.EntityID(from), To: graph.EntityID(to), Rel: graph.RelTypeID(rel)})
	}
	if d.err != nil {
		return nil, d.err
	}

	want := crc32.Update(d.crc, castagnoli, d.buf[:d.pos])
	sum := d.next(4)
	if d.err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(sum) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return graph.Assemble(types, rels, ents, edges)
}

// SaveFile writes a snapshot to path through commitFile: path never
// names a torn snapshot, nor one whose bytes or name a power failure
// could still take back.
func SaveFile(path string, g *graph.EntityGraph) error {
	return commitFile(path, func(w io.Writer) error { return Write(w, g) })
}

// commitFile is how every durable file but a WAL segment is written: the
// bytes write produces go to a temp file beside path, which is fsynced
// and renamed over path, and then the directory is fsynced. A crash at
// any point leaves the old file or the new one, never a torn one, and
// once commitFile returns the new one survives power loss.
func commitFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// commitLine commits a one-line file through commitFile.
func commitLine(path, line string) error {
	return commitFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, line+"\n")
		return err
	})
}

// syncDir fsyncs a directory, making the renames, creates and unlinks
// inside it durable against power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*graph.EntityGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Checkpointer persists successive epochs of a mutating graph. Save is
// epoch-aware: re-saving an epoch that is already on disk is a no-op, so
// a periodic checkpoint loop costs nothing while the graph is quiet.
// Safe for concurrent use.
//
// Each checkpoint is an epoch-named snapshot (`<name>-<epoch>.egpt`)
// made current by atomically rewriting a `<name>.current` manifest, so a
// restart always knows the exact epoch the loaded snapshot represents no
// matter where a crash fell; after the manifest swap, superseded
// snapshots are deleted and the paired WAL, if any, is truncated through
// the checkpointed epoch.
type Checkpointer struct {
	dir, name string
	wal       *WAL // optional: truncated after each save

	mu    sync.Mutex
	last  uint64
	saved bool
}

// NewDurableCheckpointer returns a checkpointer writing epoch-named
// snapshots plus a current-manifest for name under dir. wal, when
// non-nil, is truncated through each checkpointed epoch after the
// manifest swap — the WAL records a checkpoint covers are the ones it
// makes redundant. Load the result back with LoadLatestCheckpoint.
// Nothing is saved yet — the first Save call writes unconditionally.
func NewDurableCheckpointer(dir, name string, wal *WAL) *Checkpointer {
	return &Checkpointer{dir: dir, name: name, wal: wal}
}

// Save persists g unless epoch is already the one on disk; it reports
// whether a write happened. Concurrent calls serialize, and a failed
// write stays retryable (the recorded epoch only advances on success).
func (c *Checkpointer) Save(g *graph.EntityGraph, epoch uint64) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.saved && c.last == epoch {
		return false, nil
	}
	if err := c.saveLocked(g, epoch); err != nil {
		return false, err
	}
	c.last, c.saved = epoch, true
	return true, nil
}

// saveLocked writes the epoch-named snapshot, swaps the manifest,
// and only then cleans up — so a crash at any point leaves a manifest
// naming a fully written snapshot whose epoch is known exactly. Both
// commits are durable (commitFile) before the WAL loses the records the
// checkpoint covers: truncation must never outrun the snapshot on its
// way to stable storage.
func (c *Checkpointer) saveLocked(g *graph.EntityGraph, epoch uint64) error {
	snapName := checkpointSnapName(c.name, epoch)
	if err := SaveFile(filepath.Join(c.dir, snapName), g); err != nil {
		return err
	}
	if err := commitLine(manifestPath(c.dir, c.name), snapName); err != nil {
		return err
	}
	// Past the commit point: failures below cost disk space, not data.
	if ents, err := os.ReadDir(c.dir); err == nil {
		for _, e := range ents {
			n := e.Name()
			if n == snapName {
				continue
			}
			if e, ok := checkpointSnapEpoch(c.name, n); ok && e != epoch {
				os.Remove(filepath.Join(c.dir, n))
			}
		}
	}
	if c.wal != nil {
		if err := c.wal.TruncateThrough(epoch); err != nil {
			return fmt.Errorf("truncating WAL after checkpoint: %w", err)
		}
	}
	return nil
}

// manifestSuffix ends a checkpoint manifest's name, `<name>.current`.
const manifestSuffix = ".current"

func manifestPath(dir, name string) string { return filepath.Join(dir, name+manifestSuffix) }

// CheckpointedGraphs returns the names of the graphs that have a
// checkpoint manifest in dir, in file-name order.
func CheckpointedGraphs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), manifestSuffix); ok {
			names = append(names, name)
		}
	}
	return names, nil
}

func checkpointSnapName(name string, epoch uint64) string {
	return fmt.Sprintf("%s-%020d.egpt", name, epoch)
}

// checkpointSnapEpoch parses fname as an epoch-named snapshot of name.
func checkpointSnapEpoch(name, fname string) (uint64, bool) {
	rest, ok := strings.CutPrefix(fname, name+"-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".egpt")
	if !ok || len(digits) != 20 {
		return 0, false
	}
	epoch, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

// LoadLatestCheckpoint loads name's newest checkpoint from dir:
// the snapshot its current-manifest names, plus the exact epoch it was
// taken at. ok=false (with nil error) means no checkpoint exists yet.
func LoadLatestCheckpoint(dir, name string) (*graph.EntityGraph, uint64, bool, error) {
	data, err := os.ReadFile(manifestPath(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	snapName := strings.TrimSpace(string(data))
	epoch, ok := checkpointSnapEpoch(name, snapName)
	if !ok || filepath.Base(snapName) != snapName {
		return nil, 0, false, fmt.Errorf("%w: checkpoint manifest names %q", ErrCorrupt, snapName)
	}
	g, err := LoadFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil, 0, false, fmt.Errorf("loading checkpoint %s: %w", snapName, err)
	}
	return g, epoch, true, nil
}
