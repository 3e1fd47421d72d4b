package order

// Rel codes classify an ordered pair of value ids in one probe. They are
// the result type of Relation.Rel, the hot-path replacement for paired
// Has(x,y)/Has(y,x) bitset probes in pref.Profile.Compare.
const (
	// RelNone: the values are unrelated (neither x ≻ y nor y ≻ x).
	RelNone uint8 = iota
	// RelLeft: x ≻ y.
	RelLeft
	// RelRight: y ≻ x.
	RelRight
)

// TableMaxN caps the dense table at n×n = 1 MiB of uint8 cells. Real
// categorical domains (genres, languages, publishers) sit far below this;
// a pathological domain simply keeps the bitset-probe path. The member
// tables' cells (internal/core) share the cap.
const TableMaxN = 1 << 10

// cmpTable is a dense n×n matrix of Rel codes derived from the closed
// successor bitsets: t[x*n+y] answers "how do x and y relate" in one load,
// replacing two bitset probes (each a bounds check + word index + shift)
// on the dominance hot path. Tables are immutable once published; mutators
// drop the pointer and the next Rel call rebuilds from succ.
type cmpTable struct {
	n int
	t []uint8
}

// Rel classifies the ordered pair (x, y): RelLeft if x ≻ y, RelRight if
// y ≻ x, RelNone otherwise. Ids outside the published table (values
// interned after the last build, or domains past TableMaxN) fall back
// to exact bitset probes, so the answer never goes stale on domain growth.
//
//paretomon:hotpath
func (r *Relation) Rel(x, y int) uint8 {
	t := r.table()
	if t != nil && x >= 0 && y >= 0 && x < t.n && y < t.n {
		return t.t[x*t.n+y]
	}
	if r.Has(x, y) {
		return RelLeft
	}
	if r.Has(y, x) {
		return RelRight
	}
	return RelNone
}

// Row returns x's row of the dense table: row[y] == Rel(x, y) for every
// y < len(row). It is nil when the table does not cover x (value interned
// after the last build, or a domain past TableMaxN); callers then ask
// Rel pair by pair. A scan that holds x fixed fetches the row once and
// pays one byte load per comparison instead of a table resolution. The
// row is valid until the relation is next mutated.
//
//paretomon:hotpath
func (r *Relation) Row(x int) []uint8 {
	t := r.table()
	if t == nil || uint(x) >= uint(t.n) {
		return nil
	}
	return t.t[x*t.n : (x+1)*t.n]
}

// table returns the published table, building it after an invalidation;
// nil when the domain is past TableMaxN.
func (r *Relation) table() *cmpTable {
	if t := r.cmp.Load(); t != nil {
		return t
	}
	return r.buildCmp()
}

// buildCmp materializes the table from the closed succ bitsets and
// publishes it. Concurrent readers may race to build after an
// invalidation; each derives an identical table from the same (quiescent —
// mutation is serialized against reads by the callers' locking) closure,
// so the last store winning is harmless.
func (r *Relation) buildCmp() *cmpTable {
	n := r.n
	if n > TableMaxN {
		return nil
	}
	t := &cmpTable{n: n, t: make([]uint8, n*n)}
	for x := 0; x < n; x++ {
		row := t.t[x*n : (x+1)*n : (x+1)*n]
		r.succ[x].ForEach(func(y int) bool {
			row[y] = RelLeft
			t.t[y*n+x] = RelRight
			return true
		})
	}
	r.cmp.Store(t)
	return t
}
