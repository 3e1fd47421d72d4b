package wire

import (
	"unicode/utf8"

	paretomon "repro"
)

// AppendObject appends {"name":…,"values":[…]} — the bytes json.Marshal
// writes for the request struct, a nil Values as null included.
//
//paretomon:hotpath
func AppendObject(dst []byte, o paretomon.Object) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, o.Name)
	dst = append(dst, `,"values":`...)
	if o.Values == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendStrings(dst, o.Values)
	}
	return append(dst, '}')
}

// AppendBatch appends {"objects":[…]}, the body of POST /objects/batch.
//
//paretomon:hotpath
func AppendBatch(dst []byte, objs []paretomon.Object) []byte {
	dst = append(dst, `{"objects":[`...)
	for i, o := range objs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendObject(dst, o)
	}
	return append(dst, "]}"...)
}

// AppendDelivery appends {"object":…,"users":[…]}. The HTTP API never
// says null for "nobody": nil Users encode as [].
//
//paretomon:hotpath
func AppendDelivery(dst []byte, d paretomon.Delivery) []byte {
	dst = append(dst, `{"object":`...)
	dst = appendString(dst, d.Object)
	dst = append(dst, `,"users":`...)
	dst = appendStrings(dst, d.Users)
	return append(dst, '}')
}

// AppendDeliveries appends {"deliveries":[…]}, the reply of POST
// /objects/batch.
//
//paretomon:hotpath
func AppendDeliveries(dst []byte, ds []paretomon.Delivery) []byte {
	dst = append(dst, `{"deliveries":[`...)
	for i, d := range ds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendDelivery(dst, d)
	}
	return append(dst, "]}"...)
}

// AppendDelta appends {"object":…,"entered":[…],"left":[…]}, the data
// of a /deltas SSE frame. nil Entered and Left encode as [].
//
//paretomon:hotpath
func AppendDelta(dst []byte, d paretomon.FrontierDelta) []byte {
	dst = append(dst, `{"object":`...)
	dst = appendString(dst, d.Object)
	dst = append(dst, `,"entered":`...)
	dst = appendStrings(dst, d.Entered)
	dst = append(dst, `,"left":`...)
	dst = appendStrings(dst, d.Left)
	return append(dst, '}')
}

//paretomon:hotpath
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

const hex = "0123456789abcdef"

// escapes classifies the ASCII bytes encoding/json does not copy
// verbatim into a string (with its default HTML escaping): 'u' is the
// six-byte \u00XX form, anything else non-zero the letter of a two-byte
// escape.
var escapes = func() (t [utf8.RuneSelf]byte) {
	for b := range 0x20 {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// appendString appends s as encoding/json quotes it.
//
//paretomon:hotpath
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, verbatim
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			e := escapes[b]
			if e != 0 {
				dst = append(dst, s[start:i]...)
				if e == 'u' {
					dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
				} else {
					dst = append(dst, '\\', e)
				}
				start = i + 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
