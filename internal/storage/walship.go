// WAL shipping: the pieces that turn the write-ahead log into a
// replication log. A WAL frame is one record as a segment holds it —
// `recLen uvarint | body | CRC-32C(recLen bytes + body)` with body =
// `epoch uvarint | kind byte | payload` — and a leader ships frames
// concatenated onto an HTTP response with no segment header.
// AppendWALRecord writes a frame (Append writes the same bytes into a
// segment), and WALStreamReader is the one decoder of frames: a follower
// reads its feed through it, and the segment scan (scanWAL) reads every
// segment's records through it once the header checks out. So a feed and
// a segment accept exactly the same bytes: anything that does not decode
// to exactly this shape is ErrCorrupt, a truncated frame is a torn tail,
// and accepted records are epoch-contiguous. ReadWALAfterN is the
// leader-side tail read that feeds a follower from the on-disk log.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// AppendWALRecord appends rec's frame to dst and returns the extended
// slice: the bytes Append writes into a segment after the header, and
// the bytes a shipped stream carries. Concatenated frames are a valid
// stream for WALStreamReader.
func AppendWALRecord(dst []byte, rec WALRecord) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	bn := binary.PutUvarint(hdr[:], rec.Epoch)
	hdr[bn] = rec.Kind
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(bn+1+len(rec.Payload)))
	dst = append(dst, hdr[:bn+1]...)
	dst = append(dst, rec.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// WALStreamReader decodes a sequence of WAL frames: a shipped stream, or
// a segment's records after its header. Next returns io.EOF exactly at a
// frame boundary; every other failure — a torn frame, a checksum
// mismatch, an epoch gap — wraps ErrCorrupt, so a follower can rely on
// errors.Is to tell "the feed ended" from "the feed is damaged; drop it
// and re-sync from the last applied epoch".
type WALStreamReader struct {
	r      *bufio.Reader
	expect uint64
	has    bool
	n      int64 // bytes of the frames accepted since r was set
}

// NewWALStreamReader returns a reader decoding records from r.
func NewWALStreamReader(r io.Reader) *WALStreamReader {
	return &WALStreamReader{r: bufio.NewReader(r)}
}

// Next decodes one record. io.EOF means the stream ended cleanly at a
// frame boundary; ErrCorrupt-wrapped errors mean damage (including a
// stream torn mid-frame); anything else is a transport failure. The
// payload is the record's own memory.
func (sr *WALStreamReader) Next() (WALRecord, error) {
	// The length varint is kept as it arrived: the checksum covers it.
	var lenBuf [binary.MaxVarintLen64]byte
	var recLen uint64
	k := 0
	for {
		b, err := sr.r.ReadByte()
		if err != nil {
			if k == 0 && err == io.EOF {
				return WALRecord{}, io.EOF // clean boundary
			}
			return WALRecord{}, torn(err)
		}
		if k == len(lenBuf)-1 && b > 1 {
			return WALRecord{}, fmt.Errorf("%w: WAL record length overflows", ErrCorrupt)
		}
		lenBuf[k] = b
		recLen |= uint64(b&0x7f) << (7 * k)
		k++
		if b < 0x80 {
			break
		}
	}
	if recLen > maxWALRecord {
		return WALRecord{}, fmt.Errorf("%w: WAL record length %d", ErrCorrupt, recLen)
	}
	frame, err := readFull(sr.r, int(recLen)+4)
	if err != nil {
		return WALRecord{}, torn(err)
	}
	body := frame[:recLen]
	if crc32.Update(crc32.Checksum(lenBuf[:k], castagnoli), castagnoli, body) != binary.BigEndian.Uint32(frame[recLen:]) {
		return WALRecord{}, fmt.Errorf("%w: WAL record checksum mismatch", ErrCorrupt)
	}
	epoch, n := binary.Uvarint(body)
	if n <= 0 || n >= len(body) {
		return WALRecord{}, fmt.Errorf("%w: WAL record body", ErrCorrupt)
	}
	if sr.has && epoch != sr.expect {
		return WALRecord{}, fmt.Errorf("%w: WAL epoch %d, want %d", ErrCorrupt, epoch, sr.expect)
	}
	sr.has, sr.expect = true, epoch+1
	sr.n += int64(k + len(frame))
	return WALRecord{Epoch: epoch, Kind: body[n], Payload: body[n+1:]}, nil
}

// readFull reads exactly n bytes from r into a buffer that grows as they
// arrive, so a damaged length costs no more memory than the input holds.
func readFull(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readBuffer))
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// torn classifies an interrupted read: running out of bytes mid-frame is
// corruption (a torn frame); a real transport error passes through for
// the caller to retry.
func torn(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: torn WAL record", ErrCorrupt)
	}
	return err
}

// ReadWALAfterN reads dir's records with epochs strictly greater than
// after, in epoch order, at most max of them (max <= 0 means no bound) —
// the leader-side tail read behind WAL shipping. Whole segments older
// than the cut are skipped by name (segment names carry their first
// epoch), and the scan stops once it holds max records, so a sender
// chunking a long backlog decodes one chunk's worth per call. The error
// discipline is ReplayWAL's: the returned records are always a valid,
// contiguous prefix of the requested tail, and a damaged or torn tail
// before the cap reports ErrCorrupt alongside them. A missing directory
// is an empty log.
//
// Concurrent appends are safe to race with: records are fsynced in
// order, so a scan that stops at a half-written final record has still
// returned every record some Append acknowledged before the scan began.
// Callers cap at the durable epoch they observed and treat a shorter
// prefix as damage.
func ReadWALAfterN(dir string, after uint64, max int) ([]WALRecord, error) {
	s, err := scanWAL(dir, after+1, max)
	return s.recs, err
}

// FirstEpoch returns the oldest epoch the log still holds, and false
// when the log holds no records at all (empty, or fully truncated by a
// checkpoint). Together with LastEpoch it brackets the shippable range:
// a follower at epoch f can tail the log iff f+1 >= FirstEpoch — below
// that it is past the truncation horizon and must bootstrap from a
// checkpoint instead.
func (w *WAL) FirstEpoch() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.closed {
		if seg.records > 0 {
			return seg.first, true
		}
	}
	if w.f != nil && w.active.records > 0 {
		return w.active.first, true
	}
	return 0, false
}
