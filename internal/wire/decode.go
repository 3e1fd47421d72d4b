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

// DecodeObject decodes the body of POST /objects.
func DecodeObject(data []byte) (paretomon.Object, error) {
	if o, ok := parseObject(data); ok {
		return o, nil
	}
	return jsonObject(data)
}

func jsonObject(data []byte) (paretomon.Object, error) {
	var v objectRequest
	err := decodeJSON(data, &v)
	return paretomon.Object(v), err
}

// DecodeBatch decodes the body of POST /objects/batch. Like
// encoding/json it returns nil for an absent or null "objects" and an
// empty slice for [].
func DecodeBatch(data []byte) ([]paretomon.Object, error) {
	if objs, ok := parseBatch(data); ok {
		return objs, nil
	}
	return jsonBatch(data)
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

// DecodeDeliveries decodes the reply of POST /objects/batch; nil and
// empty slices as for DecodeBatch.
func DecodeDeliveries(data []byte) ([]paretomon.Delivery, error) {
	if ds, ok := parseDeliveries(data); ok {
		return ds, nil
	}
	return jsonDeliveries(data)
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
// The three array loops are spelled out rather than sharing one that
// takes the element parser as a func value: the indirect call would
// make the parser escape, an allocation per body.

func parseObject(data []byte) (paretomon.Object, bool) {
	p := parser{data: data}
	o, ok := p.object()
	return o, ok && p.end()
}

func parseBatch(data []byte) ([]paretomon.Object, bool) {
	p := parser{data: data}
	if !p.lit("{") || !p.lit(`"objects"`) || !p.lit(":") || !p.lit("[") {
		return nil, false
	}
	var scratch [arrayScratch]paretomon.Object
	objs := scratch[:0]
	for !p.lit("]") {
		if len(objs) > 0 && !p.lit(",") {
			return nil, false
		}
		o, ok := p.object()
		if !ok {
			return nil, false
		}
		objs = append(objs, o)
	}
	return exact(objs), p.lit("}") && p.end()
}

func parseDeliveries(data []byte) ([]paretomon.Delivery, bool) {
	p := parser{data: data}
	if !p.lit("{") || !p.lit(`"deliveries"`) || !p.lit(":") || !p.lit("[") {
		return nil, false
	}
	var scratch [arrayScratch]paretomon.Delivery
	ds := scratch[:0]
	for !p.lit("]") {
		if len(ds) > 0 && !p.lit(",") {
			return nil, false
		}
		d, ok := p.delivery()
		if !ok {
			return nil, false
		}
		ds = append(ds, d)
	}
	return exact(ds), p.lit("}") && p.end()
}

// arrayScratch is how many elements an array is collected into on the
// stack: arrays up to this long cost one allocation, exactly sized.
const arrayScratch = 16

// exact copies vals into a slice of its own — empty, not nil, for no
// elements, as encoding/json decodes [].
func exact[T any](vals []T) []T { return append([]T{}, vals...) }

// parser is a cursor over one body.
type parser struct {
	data []byte
	i    int
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

// str consumes a string that needs no unquoting.
func (p *parser) str() (string, bool) {
	p.space()
	if p.i >= len(p.data) || p.data[p.i] != '"' {
		return "", false
	}
	start, ascii := p.i+1, true
	for j := start; j < len(p.data); j++ {
		switch c := p.data[j]; {
		case c == '"':
			s := p.data[start:j]
			if !ascii && !utf8.Valid(s) {
				return "", false
			}
			p.i = j + 1
			return string(s), true
		case c == '\\' || c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// named consumes {k1: string, k2: [string, ...]} — the common form of
// an object and a delivery.
func (p *parser) named(k1, k2 string) (string, []string, bool) {
	if !p.lit("{") || !p.lit(k1) || !p.lit(":") {
		return "", nil, false
	}
	name, ok := p.str()
	if !ok || !p.lit(",") || !p.lit(k2) || !p.lit(":") || !p.lit("[") {
		return "", nil, false
	}
	var scratch [arrayScratch]string
	list := scratch[:0]
	for !p.lit("]") {
		if len(list) > 0 && !p.lit(",") {
			return "", nil, false
		}
		s, ok := p.str()
		if !ok {
			return "", nil, false
		}
		list = append(list, s)
	}
	return name, exact(list), p.lit("}")
}

func (p *parser) object() (paretomon.Object, bool) {
	name, values, ok := p.named(`"name"`, `"values"`)
	return paretomon.Object{Name: name, Values: values}, ok
}

func (p *parser) delivery() (paretomon.Delivery, bool) {
	object, users, ok := p.named(`"object"`, `"users"`)
	return paretomon.Delivery{Object: object, Users: users}, ok
}
