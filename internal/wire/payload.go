package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"

	paretomon "repro"
)

// The ingest stream's binary payloads (see frame.go). A batch and its 200
// reply share one layout: a count, then per object its name and values
// (per delivery the object's name and its users), where a count or a
// string's length is a uvarint. A reply answers its batch one delivery
// per object, in order.

// ErrBadPayload reports an intact frame whose payload does not decode:
// cut short, a count or length past the bytes present, bytes after the
// end, a string that is not valid UTF-8, or a reply to another batch.
var ErrBadPayload = errors.New("wire: malformed stream payload")

// AppendBatchPayload appends objs as a request payload's batch.
//
//paretomon:hotpath
func AppendBatchPayload(dst []byte, objs []paretomon.Object) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	for _, o := range objs {
		dst = appendList(appendBytes(dst, o.Name), o.Values)
	}
	return dst
}

// AppendReplyPayload appends ds as a 200 reply payload's deliveries.
//
//paretomon:hotpath
func AppendReplyPayload(dst []byte, ds []paretomon.Delivery) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = appendList(appendBytes(dst, d.Object), d.Users)
	}
	return dst
}

//paretomon:hotpath
func appendBytes(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

//paretomon:hotpath
func appendList(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendBytes(dst, s)
	}
	return dst
}

// DecodeBatchPayload decodes a request payload's batch out of p, which
// the objects never alias.
func DecodeBatchPayload(b *Buffer, p []byte) ([]paretomon.Object, error) {
	defer b.reset()
	if err := decodePayload(b, p, nil); err != nil {
		return nil, err
	}
	return b.objects(), nil
}

// DecodeReplyPayload decodes a 200 reply payload's deliveries to sent
// out of p, checking each name in place: a delivery's Object is the sent
// object's name, and its users never alias p.
func DecodeReplyPayload(b *Buffer, p []byte, sent []paretomon.Object) ([]paretomon.Delivery, error) {
	defer b.reset()
	if err := decodePayload(b, p, sent); err != nil {
		return nil, err
	}
	return b.deliveries(), nil
}

// decodePayload collects p into b.elems and b.strs, the strings through
// b's cache. With sent non-nil p is a reply, whose names must be sent's.
func decodePayload(b *Buffer, p []byte, sent []paretomon.Object) error {
	r := payload{p: p}
	n := r.count()
	if sent != nil && n != len(sent) {
		r.fail("%d deliveries answer %d objects", n, len(sent))
	}
	for i := 0; i < n && r.err == nil; i++ {
		e := elem{lo: len(b.strs)}
		switch name := r.text(); {
		case sent == nil:
			e.name = string(name)
		case string(name) == sent[i].Name:
			e.name = sent[i].Name
		default:
			r.fail("delivery %d is for %q, sent %q", i, name, sent[i].Name)
		}
		for range r.count() {
			b.strs = append(b.strs, b.str(r.text()))
		}
		e.hi = len(b.strs)
		b.elems = append(b.elems, e)
	}
	if r.off != len(p) {
		r.fail("%d bytes after the end", len(p)-r.off)
	}
	return r.err
}

// payload is a cursor over a payload. Its first failure is kept in err;
// after it, it yields zeros and empty strings.
type payload struct {
	p   []byte
	off int
	err error
}

func (r *payload) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadPayload}, args...)...)
	}
}

// count consumes a uvarint that counts items of at least a byte each: one
// past the bytes left is refused before anything is collected for it.
func (r *payload) count() int {
	if r.off < len(r.p) && int(r.p[r.off]) < min(0x80, len(r.p)-r.off) {
		r.off++ // the one-byte form
		return int(r.p[r.off-1])
	}
	n, k := binary.Uvarint(r.p[r.off:])
	if k <= 0 || n > uint64(len(r.p)-r.off-k) {
		r.fail("cut short at byte %d of %d", r.off, len(r.p))
		r.off = len(r.p)
		return 0
	}
	r.off += k
	return int(n)
}

// text consumes a string, which must be valid UTF-8, and returns its
// bytes, which alias the payload.
func (r *payload) text() []byte {
	n := r.count()
	r.off += n
	s := r.p[r.off-n : r.off]
	if !utf8.Valid(s) {
		r.fail("a string that is not UTF-8 ends at byte %d", r.off)
	}
	return s
}
