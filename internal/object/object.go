// Package object defines the object model: tuples of interned attribute
// values arriving on an append-only stream (Sec. 3 of the paper). Objects
// carry dense int32 attribute ids assigned by the order.Domain of each
// attribute; all dominance logic lives in package pref.
package object

// Object is one row of the object table O. ID is its arrival position
// (timestamp in the sliding-window semantics of Sec. 7); Attrs[d] is the
// interned value id of attribute d.
type Object struct {
	ID    int
	Attrs []int32
}

// Project returns a copy of o restricted to the first d attributes. The
// dimensionality sweeps of Figs. 6, 7, 10, 11 use it to vary d.
func (o Object) Project(d int) Object {
	return Object{ID: o.ID, Attrs: o.Attrs[:d:d]}
}

// Stream replays a fixed object list cyclically up to n objects, assigning
// fresh sequential ids — exactly how the paper builds its 1M-object streams
// ("O is composed of duplicated sequence of the corresponding dataset",
// Sec. 8.3). Project is applied when dims > 0 to restrict dimensionality.
type Stream struct {
	base []Object
	n    int
	dims int
	next int
}

// NewStream creates a stream that yields n objects by cycling over base.
// If dims > 0 each object is projected to its first dims attributes.
func NewStream(base []Object, n, dims int) *Stream {
	if len(base) == 0 {
		panic("object: empty stream base")
	}
	return &Stream{base: base, n: n, dims: dims}
}

// Next returns the next object and true, or a zero Object and false when
// the stream is exhausted.
func (s *Stream) Next() (Object, bool) {
	if s.next >= s.n {
		return Object{}, false
	}
	o := s.base[s.next%len(s.base)]
	if s.dims > 0 {
		o = o.Project(s.dims)
	}
	o.ID = s.next
	s.next++
	return o, true
}

// Reset rewinds the stream to the beginning.
func (s *Stream) Reset() { s.next = 0 }
