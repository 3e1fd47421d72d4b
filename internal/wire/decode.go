package wire

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"

	paretomon "repro"
)

// The shapes as encoding/json sees them: the decoders' fall-back
// targets, and the definition the encoders are tested against. The
// type names reach clients — encoding/json quotes them in its type
// errors ("… into Go struct field objectRequest.name of type string") —
// so they are the ones internal/server always had.
type (
	objectRequest struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	batchRequest struct {
		Objects []objectRequest `json:"objects"`
	}
	deliveryResponse struct {
		Object string   `json:"object"`
		Users  []string `json:"users"`
	}
	batchResponse struct {
		Deliveries []deliveryResponse `json:"deliveries"`
	}
)

// Each Decode* tries the fast path and otherwise hands the same bytes to
// the json* function next to it — exactly what the handlers did before
// this package existed: json.NewDecoder(body).Decode(&v), which reads
// the first value and ignores whatever follows it.

func decodeJSON(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// DecodeObject decodes b.B, the body of POST /objects.
func DecodeObject(b *Buffer) (paretomon.Object, error) {
	if o, ok := parseObject(b); ok {
		return o, nil
	}
	return jsonObject(b.B)
}

func jsonObject(data []byte) (paretomon.Object, error) {
	var v objectRequest
	err := decodeJSON(data, &v)
	return paretomon.Object(v), err
}

// DecodeBatch decodes b.B, the body of POST /objects/batch. Like
// encoding/json it returns nil for an absent or null "objects" and an
// empty slice for [].
func DecodeBatch(b *Buffer) ([]paretomon.Object, error) {
	if objs, ok := parseBatch(b); ok {
		return objs, nil
	}
	return jsonBatch(b.B)
}

func jsonBatch(data []byte) ([]paretomon.Object, error) {
	var v batchRequest
	if err := decodeJSON(data, &v); err != nil || v.Objects == nil {
		return nil, err
	}
	objs := make([]paretomon.Object, len(v.Objects))
	for i, o := range v.Objects {
		objs[i] = paretomon.Object(o)
	}
	return objs, nil
}

// DecodeDeliveries decodes b.B, the reply of POST /objects/batch; nil
// and empty slices as for DecodeBatch.
func DecodeDeliveries(b *Buffer) ([]paretomon.Delivery, error) {
	if ds, ok := parseDeliveries(b); ok {
		return ds, nil
	}
	return jsonDeliveries(b.B)
}

func jsonDeliveries(data []byte) ([]paretomon.Delivery, error) {
	var v batchResponse
	if err := decodeJSON(data, &v); err != nil || v.Deliveries == nil {
		return nil, err
	}
	ds := make([]paretomon.Delivery, len(v.Deliveries))
	for i, d := range v.Deliveries {
		ds[i] = paretomon.Delivery(d)
	}
	return ds, nil
}

// The fast path. It accepts a strict subset of what encoding/json
// accepts for these shapes and must decode that subset to the same
// values (the Fuzz* targets hold it to that): every key present once,
// spelled exactly, in declaration order; strings without escapes,
// control bytes or invalid UTF-8; arrays never null; only whitespace
// after the value. ok == false means "not that subset", never "invalid".
//
// An object and a delivery are both {k1: string, k2: [string, ...]}
// (named), and a batch and a batch reply both {key: [element, ...]}
// (list). The elements and their strings are collected into the
// buffer's scratch, then copied out into one slice of elements and one
// backing array of strings, whatever the length: a batch of n objects
// costs its n names and two allocations.

func parseObject(b *Buffer) (paretomon.Object, bool) {
	defer b.reset()
	p := parser{data: b.B, buf: b}
	e, ok := p.named(`"name"`, `"values"`)
	if !ok || !p.end() {
		return paretomon.Object{}, false
	}
	return paretomon.Object{Name: e.name, Values: b.slab()}, true
}

func parseBatch(b *Buffer) ([]paretomon.Object, bool) {
	defer b.reset()
	p := parser{data: b.B, buf: b}
	if !p.list(`"objects"`, `"name"`, `"values"`) {
		return nil, false
	}
	return b.objects(), true
}

func parseDeliveries(b *Buffer) ([]paretomon.Delivery, bool) {
	defer b.reset()
	p := parser{data: b.B, buf: b}
	if !p.list(`"deliveries"`, `"object"`, `"users"`) {
		return nil, false
	}
	return b.deliveries(), true
}

// objects copies the collected elements out as objects.
func (b *Buffer) objects() []paretomon.Object {
	vals := b.slab()
	objs := make([]paretomon.Object, len(b.elems))
	for i, e := range b.elems {
		objs[i] = paretomon.Object{Name: e.name, Values: vals[e.lo:e.hi:e.hi]}
	}
	return objs
}

// deliveries copies the collected elements out as deliveries.
func (b *Buffer) deliveries() []paretomon.Delivery {
	users := b.slab()
	ds := make([]paretomon.Delivery, len(b.elems))
	for i, e := range b.elems {
		ds[i] = paretomon.Delivery{Object: e.name, Users: users[e.lo:e.hi:e.hi]}
	}
	return ds
}

// elem is one decoded element of a list: its name, and its strings at
// Buffer.strs[lo:hi].
type elem struct {
	name   string
	lo, hi int
}

// slab copies the collected strings into a backing array of their own —
// empty, not nil, for none, so that every element's sub-slice decodes []
// as encoding/json does.
func (b *Buffer) slab() []string {
	out := make([]string, len(b.strs))
	copy(out, b.strs)
	return out
}

// reset empties the scratch, dropping its references, and drops scratch
// grown past maxScratch: a buffer a caller keeps (an ingest stream's)
// must not pin what one huge batch needed.
func (b *Buffer) reset() {
	if cap(b.elems) > maxScratch || cap(b.strs) > maxScratch {
		b.elems, b.strs = nil, nil
		return
	}
	clear(b.elems)
	clear(b.strs)
	b.elems, b.strs = b.elems[:0], b.strs[:0]
}

// parser is a cursor over one body, collecting into its buffer.
type parser struct {
	data []byte
	i    int
	buf  *Buffer
}

func (p *parser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes optional whitespace and then exactly tok.
func (p *parser) lit(tok string) bool {
	p.space()
	end := p.i + len(tok)
	if end > len(p.data) || string(p.data[p.i:end]) != tok {
		return false
	}
	p.i = end
	return true
}

// end reports whether only whitespace remains.
func (p *parser) end() bool {
	p.space()
	return p.i == len(p.data)
}

// str consumes a string that needs no unquoting and returns its bytes,
// which alias the body.
func (p *parser) str() ([]byte, bool) {
	p.space()
	if p.i >= len(p.data) || p.data[p.i] != '"' {
		return nil, false
	}
	start, ascii := p.i+1, true
	for j := start; j < len(p.data); j++ {
		switch c := p.data[j]; {
		case c == '"':
			s := p.data[start:j]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			p.i = j + 1
			return s, true
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// named consumes {k1: string, k2: [string, ...]}: the first string
// becomes the element's name, a fresh string (names are unique), and the
// list is appended to buf.strs through the cache.
func (p *parser) named(k1, k2 string) (elem, bool) {
	if !p.lit("{") || !p.lit(k1) || !p.lit(":") {
		return elem{}, false
	}
	name, ok := p.str()
	if !ok || !p.lit(",") || !p.lit(k2) || !p.lit(":") || !p.lit("[") {
		return elem{}, false
	}
	e := elem{name: string(name), lo: len(p.buf.strs)}
	for !p.lit("]") {
		if len(p.buf.strs) > e.lo && !p.lit(",") {
			return elem{}, false
		}
		s, ok := p.str()
		if !ok {
			return elem{}, false
		}
		p.buf.strs = append(p.buf.strs, p.buf.str(s))
	}
	e.hi = len(p.buf.strs)
	return e, p.lit("}")
}

// list consumes the whole body {key: [named, ...]} into buf.elems.
func (p *parser) list(key, k1, k2 string) bool {
	if !p.lit("{") || !p.lit(key) || !p.lit(":") || !p.lit("[") {
		return false
	}
	for !p.lit("]") {
		if len(p.buf.elems) > 0 && !p.lit(",") {
			return false
		}
		e, ok := p.named(k1, k2)
		if !ok {
			return false
		}
		p.buf.elems = append(p.buf.elems, e)
	}
	return p.lit("}") && p.end()
}
