package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The ingest stream. A router sends GET /objects/stream with
// "Connection: Upgrade" and "Upgrade: paretomon-batch/2"; a partition
// that answers 101 Switching Protocols keeps the connection for batches
// from then on, one request frame per batch and one reply frame per
// request, in order. A frame has the replica feed's layout:
//
//	tag (1 byte) | payload length (u32 LE) | CRC32-IEEE of the payload (u32 LE) | payload
//
// A request payload is the batch id (uvarint length, then its bytes: the
// X-Paretomon-Batch value), the ring version (u64 LE, 0 for none: the
// X-Paretomon-Ring value) and then the batch as AppendBatchPayload
// writes it (see payload.go). A reply payload is the HTTP status (u16
// LE), whether a ring version follows (u8) and that version (u64 LE: the
// X-Paretomon-Ring value of a 409), and then, for a 200, the deliveries
// as AppendReplyPayload writes them, or for any other status exactly the
// JSON body POST /objects/batch would have answered. The stream changes
// how a batch travels, not what it means. The token's "/2" is the binary
// payload: a peer that knows only "paretomon-batch", whose frames carried
// JSON bodies, answers the other's upgrade 426, and the batches go as
// POSTs.
const StreamProtocol = "paretomon-batch/2"

// Frame tags of the ingest stream.
const (
	TagBatch byte = 'B'
	TagReply byte = 'A'
)

// Payload caps: a length above them is treated as stream damage, not
// attempted. A request carries at most a batch as long as a POST
// /objects/batch body may be (32 MiB) and its id; a reply is as long as
// the deliveries it names.
const (
	MaxRequestPayload = 33 << 20
	MaxReplyPayload   = 1 << 30
)

// FrameHeader is the length of a frame's tag, length and CRC.
const FrameHeader = 9

// replyFields are the status, the ring flag and the ring version that
// open a reply payload.
const replyFields = 11

// ErrBadFrame reports an ingest stream frame that cannot be trusted: an
// unexpected tag, a length past the cap, a CRC mismatch or a payload that
// does not parse. The stream is closed; the batch is retried on a new one.
var ErrBadFrame = errors.New("wire: damaged stream frame")

// beginFrame appends the header of a frame of tag; endFrame fills in the
// length and CRC once the payload follows it.
func beginFrame(dst []byte, tag byte) []byte {
	return append(dst, tag, 0, 0, 0, 0, 0, 0, 0, 0)
}

// endFrame completes the frame that starts at dst[start] and runs to the
// end of dst.
func endFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeader:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendBatchFrame appends one request frame: batch id, ring version and
// batch, the bytes AppendBatchPayload wrote.
func AppendBatchFrame(dst []byte, id string, ring uint64, batch []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, TagBatch)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.LittleEndian.AppendUint64(dst, ring)
	dst = append(dst, batch...)
	return endFrame(dst, start)
}

// ParseBatchFrame splits a request payload into its batch id, ring
// version and batch. The results alias p.
func ParseBatchFrame(p []byte) (id []byte, ring uint64, batch []byte, err error) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) || len(p)-k-int(n) < 8 {
		return nil, 0, nil, fmt.Errorf("%w: batch frame of %d bytes is short", ErrBadFrame, len(p))
	}
	id, p = p[k:k+int(n)], p[k+int(n):]
	return id, binary.LittleEndian.Uint64(p), p[8:], nil
}

// BeginReply starts a reply frame in dst[:0]: the frame header and the
// reply fields, which EndReply fills in. The reply body is appended to
// the result.
func BeginReply(dst []byte) []byte {
	var fields [replyFields]byte
	return append(beginFrame(dst[:0], TagReply), fields[:]...)
}

// EndReply completes the reply frame BeginReply started in dst.
func EndReply(dst []byte, status int, ring uint64, hasRing bool) []byte {
	f := dst[FrameHeader:]
	binary.LittleEndian.PutUint16(f, uint16(status))
	f[2] = 0
	if hasRing {
		f[2] = 1
	}
	binary.LittleEndian.PutUint64(f[3:], ring)
	return endFrame(dst, 0)
}

// ParseReply splits a reply payload into its status, ring version (and
// whether there is one) and body. The body aliases p.
func ParseReply(p []byte) (status int, ring uint64, hasRing bool, body []byte, err error) {
	if len(p) < replyFields || p[2] > 1 {
		return 0, 0, false, nil, fmt.Errorf("%w: reply frame of %d bytes is malformed", ErrBadFrame, len(p))
	}
	return int(binary.LittleEndian.Uint16(p)), binary.LittleEndian.Uint64(p[3:]), p[2] == 1, p[replyFields:], nil
}

// readChunk is how far ReadFrame's buffer grows ahead of the bytes that
// arrived: a hostile length costs an allocation no larger than the data
// sent, and never one past the cap.
const readChunk = 64 << 10

// ReadFrame reads the next frame, which must be tagged tag and carry at
// most limit bytes, and returns its CRC-checked payload in dst's backing
// array (grown when too short). io.EOF means the stream ended between
// frames; io.ErrUnexpectedEOF a tear inside one; ErrBadFrame that the
// bytes cannot be trusted.
func ReadFrame(r io.Reader, tag byte, dst []byte, limit int) ([]byte, error) {
	// The header is read into dst, which the payload then overwrites: an
	// array of its own would escape through r.
	if cap(dst) < FrameHeader {
		dst = make([]byte, FrameHeader)
	}
	hdr := dst[:FrameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return dst[:0], err
	}
	if hdr[0] != tag {
		return dst[:0], fmt.Errorf("%w: tag 0x%02x, want 0x%02x", ErrBadFrame, hdr[0], tag)
	}
	n, sum := int64(binary.LittleEndian.Uint32(hdr[1:])), binary.LittleEndian.Uint32(hdr[5:])
	if n > int64(limit) {
		return dst[:0], fmt.Errorf("%w: frame claims %d bytes, the cap is %d", ErrBadFrame, n, limit)
	}
	p := dst[:0]
	for len(p) < int(n) {
		step := min(int(n)-len(p), readChunk)
		if cap(p)-len(p) < step {
			grown := make([]byte, len(p), min(max(2*cap(p), len(p)+step), int(n)))
			copy(grown, p)
			p = grown
		}
		k, err := io.ReadFull(r, p[len(p):len(p)+step])
		p = p[:len(p)+k]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return p, err
		}
	}
	if crc32.ChecksumIEEE(p) != sum {
		return p, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return p, nil
}
