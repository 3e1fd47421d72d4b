package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/object"
)

// Binary encoding primitives shared by WAL record payloads and snapshot
// bodies. The vocabulary (documented byte-for-byte in
// docs/PERSISTENCE.md) is deliberately tiny:
//
//	u8      one byte
//	f64     IEEE-754 bits, 8 bytes little-endian
//	uvar    unsigned LEB128 varint (encoding/binary.PutUvarint)
//	str     uvar byte length + raw UTF-8 bytes
//	list<T> uvar element count + elements
//
// Framing (lengths, CRCs, magic numbers, versions) lives in the file
// layer; these payloads are pure content.

// enc builds a payload by appending to a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v uint8) { e.b = append(e.b, v) }
func (e *enc) uvar(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *enc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.uvar(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) strs(ss []string) {
	e.uvar(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// dec consumes a payload, remembering the first failure so call sites
// stay linear; err() reports it wrapped in ErrCorrupt.
type dec struct {
	b    []byte
	pos  int
	fail bool
}

func (d *dec) err() error {
	if d.fail {
		return fmt.Errorf("%w: truncated or malformed payload at offset %d", ErrCorrupt, d.pos)
	}
	return nil
}

func (d *dec) u8() uint8 {
	if d.fail || d.pos >= len(d.b) {
		d.fail = true
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *dec) bool() bool { return d.u8() == 1 }

func (d *dec) uvar() uint64 {
	if d.fail {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail = true
		return 0
	}
	d.pos += n
	return v
}

// length reads a uvar meant to size an allocation, rejecting values
// that could not possibly fit in the remaining bytes (every counted
// element occupies at least one byte), so corrupt counts cannot drive
// huge allocations.
func (d *dec) length() int {
	v := d.uvar()
	if d.fail || v > uint64(len(d.b)-d.pos) {
		d.fail = true
		return 0
	}
	return int(v)
}

func (d *dec) f64() float64 {
	if d.fail || d.pos+8 > len(d.b) {
		d.fail = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return v
}

func (d *dec) str() string {
	n := d.length()
	if d.fail {
		return ""
	}
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *dec) strs() []string {
	n := d.length()
	if d.fail {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) done() bool { return !d.fail && d.pos == len(d.b) }

// EncodeRecord serializes a WAL record to its codec-v2 payload bytes,
// the same encoding the file store frames into segments. The replication
// feed ships these payloads over HTTP (internal/replica frames them).
func EncodeRecord(rec Record) []byte { return appendRecord(nil, rec) }

// DecodeRecord parses one codec-v2 WAL record payload; damage is
// ErrCorrupt, never a panic.
func DecodeRecord(b []byte) (Record, error) { return decodeRecord(b) }

// appendRecord appends a WAL record's payload to dst:
//
//	uvar seq, u8 op, then per op:
//	  OpObject:            str name, list<str> values
//	                       [str writer, uvar batch]  (v4, tagged only)
//	  OpPreference:        str user, str attr, str better, str worse
//	  OpAddUser:           str name, list<pref>(str attr, str better, str worse)
//	  OpRemoveUser:        str user
//	  OpRetractPreference: str user, str attr, str better, str worse
//	  OpRemoveObject:      str name
func appendRecord(dst []byte, rec Record) []byte {
	e := enc{b: dst}
	e.uvar(rec.Seq)
	e.u8(uint8(rec.Op))
	switch rec.Op {
	case OpObject:
		e.str(rec.Name)
		e.strs(rec.Values)
		if rec.Writer != "" {
			e.str(rec.Writer)
			e.uvar(rec.Batch)
		}
	case OpPreference, OpRetractPreference:
		e.str(rec.User)
		e.str(rec.Attr)
		e.str(rec.Better)
		e.str(rec.Worse)
	case OpAddUser:
		e.str(rec.Name)
		e.uvar(uint64(len(rec.Prefs)))
		for _, p := range rec.Prefs {
			e.str(p.Attr)
			e.str(p.Better)
			e.str(p.Worse)
		}
	case OpRemoveUser:
		e.str(rec.User)
	case OpRemoveObject:
		e.str(rec.Name)
	}
	return e.b
}

// decodeRecord parses one WAL record payload.
func decodeRecord(b []byte) (Record, error) {
	d := &dec{b: b}
	rec := Record{Seq: d.uvar(), Op: Op(d.u8())}
	switch rec.Op {
	case OpObject:
		rec.Name = d.str()
		rec.Values = d.strs()
		if !d.fail && d.pos < len(b) {
			rec.Writer, rec.Batch = d.str(), d.uvar()
			if !d.fail && (rec.Writer == "" || rec.Batch == 0) {
				return Record{}, fmt.Errorf("%w: malformed batch tag on WAL record", ErrCorrupt)
			}
		}
	case OpPreference, OpRetractPreference:
		rec.User = d.str()
		rec.Attr = d.str()
		rec.Better = d.str()
		rec.Worse = d.str()
	case OpAddUser:
		rec.Name = d.str()
		n := d.length()
		if !d.fail && n > 0 {
			rec.Prefs = make([]RecordPref, n)
			for i := range rec.Prefs {
				rec.Prefs[i] = RecordPref{Attr: d.str(), Better: d.str(), Worse: d.str()}
			}
		}
	case OpRemoveUser:
		rec.User = d.str()
	case OpRemoveObject:
		rec.Name = d.str()
	default:
		if !d.fail {
			return Record{}, fmt.Errorf("%w: unknown WAL op %d", ErrCorrupt, rec.Op)
		}
	}
	if !d.done() {
		if err := d.err(); err != nil {
			return Record{}, err
		}
		return Record{}, fmt.Errorf("%w: %d trailing bytes after WAL record", ErrCorrupt, len(b)-d.pos)
	}
	return rec, nil
}

// Marshal encodes the snapshot body (the bytes under the snapshot file
// header). Layout, in order (format version 2):
//
//	u8 algorithm, uvar window, u8 measure, f64 branchCut,
//	uvar clusterCount, uvar theta1, f64 theta2
//	uvar baseUsers
//	list<list<str>> domains             (interned values, id order)
//	list<user> users                    (str name, u8 alive,
//	                                     nDims × list<tuple>(uvar better, uvar worse))
//	list<list<uvar>> clusters           (member user indices; empty = dormant)
//	list<obj> objects                   (str name, u8 alive, nDims × uvar attr)
//	uvar ×5 counters                    (comparisons, filter, verify, delivered, processed)
//	engine state                        (see encodeEngine)
//	list<memo> batches                  (v4: str writer, uvar seq, uvar start,
//	                                     list<str> objects, per object list<str> users)
//
// A body that ends after the engine state has no memos: a v3 body, or a
// v4 one with none to write (the section is left out, not written empty).
func (s *Snapshot) Marshal() []byte {
	e := &enc{b: make([]byte, 0, 1024)}
	e.u8(s.Algorithm)
	e.uvar(uint64(s.Window))
	e.u8(s.Measure)
	e.f64(s.BranchCut)
	e.uvar(uint64(s.ClusterCount))
	e.uvar(uint64(s.Theta1))
	e.f64(s.Theta2)
	e.uvar(uint64(s.BaseUsers))
	e.uvar(uint64(len(s.Domains)))
	for _, values := range s.Domains {
		e.strs(values)
	}
	dims := len(s.Domains)
	e.uvar(uint64(len(s.Users)))
	for _, u := range s.Users {
		e.str(u.Name)
		e.bool(u.Alive)
		for d := 0; d < dims; d++ {
			var tuples [][2]int
			if d < len(u.Prefs) {
				tuples = u.Prefs[d]
			}
			e.uvar(uint64(len(tuples)))
			for _, t := range tuples {
				e.uvar(uint64(t[0]))
				e.uvar(uint64(t[1]))
			}
		}
	}
	e.uvar(uint64(len(s.Clusters)))
	for _, members := range s.Clusters {
		e.ints(members)
	}
	e.uvar(uint64(len(s.Objects)))
	for _, o := range s.Objects {
		e.str(o.Name)
		e.bool(o.Alive)
		for d := 0; d < dims; d++ {
			e.uvar(uint64(o.Attrs[d]))
		}
	}
	e.uvar(s.Counters.Comparisons)
	e.uvar(s.Counters.FilterComparisons)
	e.uvar(s.Counters.VerifyComparisons)
	e.uvar(s.Counters.Delivered)
	e.uvar(s.Counters.Processed)
	encodeEngine(e, s, dims)
	if len(s.Batches) > 0 {
		e.uvar(uint64(len(s.Batches)))
	}
	for _, bm := range s.Batches {
		e.str(bm.Writer)
		e.uvar(bm.Seq)
		e.uvar(bm.Start)
		e.strs(bm.Objects)
		for _, users := range bm.Users {
			e.strs(users)
		}
	}
	return e.b
}

// UnmarshalSnapshot decodes a snapshot body. Any structural damage is
// reported as ErrCorrupt.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	d := &dec{b: b}
	s := &Snapshot{
		Algorithm:    d.u8(),
		Window:       int(d.uvar()),
		Measure:      d.u8(),
		BranchCut:    d.f64(),
		ClusterCount: int(d.uvar()),
		Theta1:       int(d.uvar()),
		Theta2:       d.f64(),
		BaseUsers:    int(d.uvar()),
	}
	s.Domains = make([][]string, d.length())
	for i := range s.Domains {
		s.Domains[i] = d.strs()
	}
	dims := len(s.Domains)
	s.Users = make([]UserState, d.length())
	for i := range s.Users {
		u := UserState{Name: d.str(), Alive: d.bool(), Prefs: make([][][2]int, dims)}
		for dim := 0; dim < dims && !d.fail; dim++ {
			n := d.length()
			if d.fail {
				break
			}
			u.Prefs[dim] = make([][2]int, n)
			for t := range u.Prefs[dim] {
				u.Prefs[dim][t] = [2]int{int(d.uvar()), int(d.uvar())}
			}
		}
		s.Users[i] = u
		if d.fail {
			break
		}
	}
	s.Clusters = make([][]int, d.length())
	for i := range s.Clusters {
		s.Clusters[i] = d.intList()
	}
	s.Objects = make([]ObjectState, d.length())
	for i := range s.Objects {
		o := ObjectState{Name: d.str(), Alive: d.bool(), Attrs: make([]int32, dims)}
		for dim := 0; dim < dims; dim++ {
			o.Attrs[dim] = int32(d.uvar())
		}
		s.Objects[i] = o
		if d.fail {
			break
		}
	}
	s.Counters.Comparisons = d.uvar()
	s.Counters.FilterComparisons = d.uvar()
	s.Counters.VerifyComparisons = d.uvar()
	s.Counters.Delivered = d.uvar()
	s.Counters.Processed = d.uvar()
	var err error
	if s.Engine, err = decodeEngine(d, dims, s.Objects, s.Window); err != nil {
		return nil, err
	}
	n := 0
	if d.pos < len(b) { // a v3 body ends here
		n = d.length()
	}
	for len(s.Batches) < n && !d.fail {
		bm := BatchMemo{Writer: d.str(), Seq: d.uvar(), Start: d.uvar(), Objects: d.strs()}
		for range bm.Objects {
			bm.Users = append(bm.Users, d.strs())
		}
		s.Batches = append(s.Batches, bm)
	}
	if !d.done() {
		if err := d.err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot body", ErrCorrupt, len(b)-d.pos)
	}
	return s, nil
}

func (e *enc) ints(v []int) {
	e.uvar(uint64(len(v)))
	for _, x := range v {
		e.uvar(uint64(x))
	}
}

func (d *dec) intList() []int {
	n := d.length()
	if d.fail {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.uvar())
	}
	return out
}

// encodeEngine serializes s's EngineState. Since object ids are dense
// indices into the snapshot's object registry, frontier and buffer
// entries are stored as bare ids and resolved against that registry on
// decode — format v3; v2 carried a per-snapshot dedup table of id → attrs
// here that duplicated what the registry already holds.
//
//	uvar nDims
//	list<list<uvar>> userFronts         (object ids, scan order)
//	list<list<uvar>> clusterFronts
//	u8 hasUserBuffers [+ list<list<uvar>>]
//	u8 hasClusterBuffers [+ list<list<uvar>>]
//	u8 hasRing [+ uvar seen, list<uvar> window as id+1; 0 = not alive]
//
// The hasRing section marks a windowed engine's state. It is written
// from the object table and the window, not from the engine, which keeps
// no copy of the window: seen is the table length, the stream position,
// and the list holds the table's last min(seen, W) slots in arrival
// order, id+1 for an alive object and 0 for a removed one: format v3's
// bytes, under v3's name. decodeEngine refuses a section that disagrees
// with the table.
func encodeEngine(e *enc, s *Snapshot, dims int) {
	st := s.Engine
	e.uvar(uint64(dims))
	idList := func(l []object.Object) {
		e.uvar(uint64(len(l)))
		for _, o := range l {
			e.uvar(uint64(o.ID))
		}
	}
	lists := func(ls [][]object.Object) {
		e.uvar(uint64(len(ls)))
		for _, l := range ls {
			idList(l)
		}
	}
	lists(st.UserFronts)
	lists(st.ClusterFronts)
	if st.UserBuffers != nil {
		e.u8(1)
		lists(st.UserBuffers)
	} else {
		e.u8(0)
	}
	if st.ClusterBuffers != nil {
		e.u8(1)
		lists(st.ClusterBuffers)
	} else {
		e.u8(0)
	}
	if !st.Windowed {
		e.u8(0)
		return
	}
	e.u8(1)
	seen := len(s.Objects)
	from := windowStart(seen, s.Window)
	e.uvar(uint64(seen))
	e.uvar(uint64(seen - from))
	for id := from; id < seen; id++ {
		e.uvar(windowEntry(s.Objects, id))
	}
}

// windowStart is the id of the oldest of seen arrivals inside a window of
// w.
func windowStart(seen, w int) int { return seen - min(seen, max(w, 0)) }

// windowEntry is id's entry in the hasRing section.
func windowEntry(objs []ObjectState, id int) uint64 {
	if objs[id].Alive {
		return uint64(id) + 1
	}
	return 0
}

// decodeEngine parses the engine-state section; ids must resolve in the
// snapshot's object registry (they are indices into it), and a window
// section must be the one the registry and window w spell, or the state
// is corrupt.
func decodeEngine(d *dec, wantDims int, objs []ObjectState, w int) (*core.EngineState, error) {
	dims := int(d.uvar())
	if d.fail {
		return nil, d.err()
	}
	if dims != wantDims {
		return nil, fmt.Errorf("%w: engine state has %d attribute dims, snapshot schema has %d", ErrCorrupt, dims, wantDims)
	}
	var bad error
	resolve := func(id int) object.Object {
		if id < 0 || id >= len(objs) {
			if !d.fail && bad == nil {
				bad = fmt.Errorf("%w: engine state references unknown object %d", ErrCorrupt, id)
			}
			return object.Object{}
		}
		return object.Object{ID: id, Attrs: objs[id].Attrs}
	}
	idList := func() []object.Object {
		n := d.length()
		if d.fail {
			return nil
		}
		out := make([]object.Object, n)
		for i := range out {
			out[i] = resolve(int(d.uvar()))
		}
		return out
	}
	lists := func() [][]object.Object {
		n := d.length()
		if d.fail {
			return nil
		}
		out := make([][]object.Object, n)
		for i := range out {
			out[i] = idList()
		}
		return out
	}
	st := &core.EngineState{}
	st.UserFronts = lists()
	st.ClusterFronts = lists()
	if d.u8() == 1 {
		st.UserBuffers = lists()
	}
	if d.u8() == 1 {
		st.ClusterBuffers = lists()
	}
	if d.u8() == 1 {
		seen, n := d.uvar(), d.length()
		from := windowStart(len(objs), w)
		if !d.fail && bad == nil && (w <= 0 || seen != uint64(len(objs)) || n != len(objs)-from) {
			bad = fmt.Errorf("%w: window section holds %d of %d arrivals, the object table %d of %d under window %d",
				ErrCorrupt, n, seen, len(objs)-from, len(objs), w)
		}
		for i := 0; i < n && !d.fail; i++ {
			got := d.uvar()
			if id := from + i; !d.fail && bad == nil && id < len(objs) && got != windowEntry(objs, id) {
				bad = fmt.Errorf("%w: window section has %d for object %d, the object table %d", ErrCorrupt, got, id, windowEntry(objs, id))
			}
		}
		st.Windowed, st.Seen = true, len(objs)
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	return st, nil
}
