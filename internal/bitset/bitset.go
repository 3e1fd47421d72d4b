package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset. The zero value is an empty set ready for use.
// Methods with a receiver pointer may grow the set; read-only methods
// tolerate sets of different lengths.
type Set struct {
	words []uint64
}

// New returns a set with capacity for values in [0, n) pre-allocated.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Rows returns n empty sets with room for values in [0, bits), laid out
// over one shared []uint64: three allocations (words, sets, pointers),
// whatever n is. Each row's words are capped at the row's end, so a row
// that grows copies itself out and never writes into its neighbour; the
// shared arrays stay live while any row is reachable.
func Rows(n, bits int) []*Set {
	if bits < 0 {
		bits = 0
	}
	w := (bits + wordBits - 1) / wordBits
	words := make([]uint64, n*w)
	sets := make([]Set, n)
	rows := make([]*Set, n)
	for i := range rows {
		sets[i].words = words[i*w : (i+1)*w : (i+1)*w]
		rows[i] = &sets[i]
	}
	return rows
}

// CloneRows returns independent copies of rows in Rows' layout: one
// shared, capped []uint64 in three allocations. Rows may differ in length;
// each copy keeps its source's length.
func CloneRows(rows []*Set) []*Set {
	total := 0
	for _, s := range rows {
		total += len(s.words)
	}
	words := make([]uint64, total)
	sets := make([]Set, len(rows))
	out := make([]*Set, len(rows))
	off := 0
	for i, s := range rows {
		end := off + copy(words[off:], s.words)
		sets[i].words = words[off:end:end]
		out[i] = &sets[i]
		off = end
	}
	return out
}

// FromSlice builds a set containing every value in vs.
func FromSlice(vs []int) *Set {
	s := &Set{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	nw := make([]uint64, word+1)
	copy(nw, s.words)
	s.words = nw
}

// Add inserts v into the set. v must be non-negative.
func (s *Set) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bitset: negative value %d", v))
	}
	w := v / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(v%wordBits)
}

// Remove deletes v from the set; removing an absent value is a no-op.
func (s *Set) Remove(v int) {
	if v < 0 {
		return
	}
	w := v / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(v%wordBits)
	}
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 {
		return false
	}
	w := v / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(v%wordBits)) != 0
}

// Word returns the i-th 64-bit word of the set: bit b of it is value
// 64·i + b. Words past the set's length read as zero, so callers can AND
// and OR sets of different lengths word by word without a bounds check of
// their own.
//
//paretomon:hotpath
func (s *Set) Word(i int) uint64 {
	if uint(i) < uint(len(s.words)) {
		return s.words[i]
	}
	return 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s an exact copy of t, reusing s's storage when possible.
func (s *Set) CopyFrom(t *Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	} else {
		s.words = s.words[:len(t.words)]
	}
	copy(s.words, t.words)
}

// Or sets s = s ∪ t and reports whether s changed.
func (s *Set) Or(t *Set) bool {
	changed := false
	if len(t.words) > len(s.words) {
		s.grow(len(t.words) - 1)
	}
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets s = s ∩ t.
func (s *Set) And(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// AndNot sets s = s − t.
func (s *Set) AndNot(t *Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// UnionCount returns |s ∪ t| without allocating.
func (s *Set) UnionCount(t *Set) int {
	c := 0
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range long {
		if i < len(short) {
			w |= short[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// SubsetOf reports whether s ⊆ t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range long {
		var sw uint64
		if i < len(short) {
			sw = short[i]
		}
		if w != sw {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	return s.AppendTo(make([]int, 0, s.Count()))
}

// AppendTo appends the elements to dst in ascending order and returns the
// extended slice; with room in dst it does not allocate.
//
//paretomon:hotpath
func (s *Set) AppendTo(dst []int) []int {
	for i, w := range s.words {
		for w != 0 {
			dst = append(dst, i*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set as "{1, 5, 9}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
