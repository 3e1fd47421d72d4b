// Package wire is the codec of the ingest path: the ingest stream's
// frames and binary payloads between a router and its partitions
// (frame.go, payload.go), the four JSON shapes — the bodies of POST
// /objects and POST /objects/batch, their replies and the /subscribe
// SSE frames — and the encoder of the /deltas SSE frames:
//
//	{"name": "o1", "values": ["13-15.9", "Apple"]}     an object
//	{"objects": [object, ...]}                          a batch
//	{"object": "o1", "users": ["c1", "c2"]}             a delivery
//	{"deliveries": [delivery, ...]}                     a batch reply
//	{"object": "o1", "entered": [...], "left": [...]}   a frontier delta
//
// The Append* encoders write exactly the bytes encoding/json writes for
// the same value (HTML-escaped, U+2028/U+2029 escaped, invalid UTF-8 as
// \ufffd), without reflection and without allocating into a warm
// buffer. The Decode* functions parse the canonical form those encoders
// (and every ordinary JSON library) produce in one pass; any other
// input — reordered, duplicate, unknown or case-folded keys, null,
// string escapes, invalid UTF-8, bytes after the value — is declined
// and decoded by encoding/json instead, so what is accepted, what it
// decodes to and the error text of what is not are encoding/json's by
// construction. See decode.go for the fork and docs/PERFORMANCE.md,
// "The routed hop", for why it exists.
//
// The decoders read a Buffer. A value, or a delivery's user name, may
// come back as the canonical string an earlier decode through the same
// buffer made for the same bytes (its cache; see Buffer.str) — strings
// are immutable, so the sharing cannot be observed. The values of a
// batch's objects share one backing array, each object's Values capped
// at its own length, so an append to one copies rather than overwriting
// the next object's. A caller must not write into a decoded slice's
// elements.
package wire

import (
	"errors"
	"io"
	"slices"
	"sync"
)

// maxPooled is the largest buffer Free keeps, and maxScratch the most
// elements of decode scratch it keeps: a rare huge body must not pin its
// memory in the pool.
const (
	maxPooled  = 64 << 10
	maxScratch = 4096
)

// Buffer is a pooled byte slice. A handler reads a body into B, decodes
// it (decoded strings never alias B), and may then encode its reply
// into B[:0]. The decoders read through the buffer's string cache and
// collect into its scratch, so a warm buffer decodes a value it has seen
// before without allocating.
type Buffer struct {
	B []byte

	// cache maps the bytes of a short value or user name to the one
	// string decoded for them; see str.
	cache map[string]string
	// elems and strs are the batch decoders' collection scratch, cleared
	// after every decode so they pin nothing.
	elems []elem
	strs  []string
}

// The string cache's bounds: it holds at most maxCached strings of at
// most maxCachedLen bytes, so a hostile body cannot make a pooled buffer
// pin more than a few hundred KiB.
const (
	maxCached    = 4096
	maxCachedLen = 64
)

var buffers = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := buffers.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Free returns b to the pool, or drops it when it has grown past
// maxPooled; oversized scratch is dropped, the cache kept. b must not be
// used afterwards.
func (b *Buffer) Free() {
	if cap(b.B) > maxPooled {
		return
	}
	b.reset()
	buffers.Put(b)
}

// str returns s as a string that does not alias it: the cached one when
// s was seen before, else a fresh copy, cached when the bounds allow.
// The lookup itself does not allocate.
func (b *Buffer) str(s []byte) string {
	if v, ok := b.cache[string(s)]; ok {
		return v
	}
	v := string(s)
	if len(s) <= maxCachedLen && len(b.cache) < maxCached {
		if b.cache == nil {
			b.cache = make(map[string]string)
		}
		b.cache[v] = v
	}
	return v
}

// ErrTooLarge reports a body longer than the limit ReadAll was given.
var ErrTooLarge = errors.New("wire: body exceeds the size limit")

// ReadAll replaces B with everything r yields up to EOF. A body of more
// than limit bytes is ErrTooLarge, found having read at most limit+1 of
// them.
func (b *Buffer) ReadAll(r io.Reader, limit int) error {
	b.B = b.B[:0]
	for len(b.B) <= limit {
		b.B = slices.Grow(b.B, 512)
		room := b.B[len(b.B):cap(b.B)]
		if left := limit - len(b.B); left < len(room) {
			room = room[:left+1]
		}
		n, err := r.Read(room)
		b.B = b.B[:len(b.B)+n]
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	if len(b.B) > limit {
		return ErrTooLarge
	}
	return nil
}
