package order

import "testing"

// relOf mirrors what Rel must agree with: two exact bitset probes.
func relOf(r *Relation, x, y int) uint8 {
	switch {
	case r.Has(x, y):
		return RelLeft
	case r.Has(y, x):
		return RelRight
	default:
		return RelNone
	}
}

func checkRelAgainstHas(t *testing.T, r *Relation, lo, hi int) {
	t.Helper()
	for x := lo; x < hi; x++ {
		for y := lo; y < hi; y++ {
			if got, want := r.Rel(x, y), relOf(r, x, y); got != want {
				t.Fatalf("Rel(%d,%d) = %d, want %d (tuples %v)", x, y, got, want, r.Tuples())
			}
		}
		// A row answers exactly like Rel as far as it reaches.
		for y, got := range r.Row(x) {
			if want := relOf(r, x, y); got != want {
				t.Fatalf("Row(%d)[%d] = %d, want %d (tuples %v)", x, y, got, want, r.Tuples())
			}
		}
	}
}

// TestRelMatchesHas locks the dense cmp table to the bitset closure across
// the full mutation surface: builds, Add-invalidation, Remove-rebuild,
// ids interned after the table was built, and clones.
func TestRelMatchesHas(t *testing.T) {
	dom := NewDomain("d")
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		dom.Intern(v)
	}
	r := NewRelation(dom)
	mustAdd := func(x, y int) {
		t.Helper()
		if err := r.Add(x, y); err != nil {
			t.Fatalf("Add(%d,%d): %v", x, y, err)
		}
	}

	mustAdd(0, 1)
	mustAdd(1, 2) // closure implies 0≻2
	checkRelAgainstHas(t, r, 0, 5)

	// Add after a build must invalidate: 3≻0 implies 3≻{1,2} too.
	mustAdd(3, 0)
	checkRelAgainstHas(t, r, 0, 5)

	// A value interned after the table was built is answered by the
	// probe fallback until the next invalidation, and exactly either way.
	fresh := dom.Intern("f")
	if got := r.Rel(fresh, 0); got != RelNone {
		t.Fatalf("Rel(fresh, 0) = %d, want RelNone", got)
	}
	if row := r.Row(fresh); row != nil {
		t.Fatalf("Row(fresh) = %v, want nil: the published table predates the value", row)
	}
	if row := r.Row(0); len(row) != fresh {
		t.Fatalf("Row(0) reaches %d values, want the %d the table was built over", len(row), fresh)
	}
	mustAdd(fresh, 4)
	checkRelAgainstHas(t, r, 0, 6)

	// Remove rebuilds the closure from the kept assertions; the table
	// must follow. Dropping 1≻2 also drops the implied 0≻2.
	if err := r.Remove(1, 2); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if r.Rel(0, 2) != RelNone || r.Rel(2, 0) != RelNone {
		t.Fatalf("implied pair survived Remove: Rel(0,2)=%d", r.Rel(0, 2))
	}
	checkRelAgainstHas(t, r, 0, 6)

	// Clones answer independently: mutating the clone must not disturb
	// the original's table, and vice versa.
	c := r.Clone()
	if err := c.Add(2, 1); err != nil {
		t.Fatalf("clone Add: %v", err)
	}
	if r.Rel(2, 1) != RelNone {
		t.Fatal("clone mutation leaked into original's Rel")
	}
	if c.Rel(2, 1) != RelLeft {
		t.Fatal("clone lost its own mutation")
	}
	checkRelAgainstHas(t, r, 0, 6)
	checkRelAgainstHas(t, c, 0, 6)
}

// TestRelOversizedDomain keeps the probe fallback exact when the domain
// exceeds the dense-table cap.
func TestRelOversizedDomain(t *testing.T) {
	dom := NewDomain("big")
	r := NewRelation(dom)
	big := TableMaxN + 5
	r.ensure(big)
	if err := r.Add(big-1, 3); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if r.cmp.Load() != nil {
		t.Fatal("oversized domain built a dense table")
	}
	if r.Rel(big-1, 3) != RelLeft || r.Rel(3, big-1) != RelRight || r.Rel(1, 2) != RelNone {
		t.Fatal("probe fallback wrong on oversized domain")
	}
	if r.Row(big-1) != nil || r.Row(3) != nil {
		t.Fatal("Row handed out a row past TableMaxN")
	}
	if r.cmp.Load() != nil {
		t.Fatal("Rel or Row built a table past TableMaxN")
	}
}
