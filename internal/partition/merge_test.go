package partition

import (
	"slices"
	"testing"

	paretomon "repro"
)

// TestMergeDeliveries: an object one partition delivers keeps that
// partition's list as it is; one several deliver gets their union,
// sorted, a user held twice (a migration's crash window) named once; and
// nobody is [], not nil.
func TestMergeDeliveries(t *testing.T) {
	objs := []paretomon.Object{{Name: "o1"}, {Name: "o2"}, {Name: "o3"}, {Name: "o4"}}
	p0 := []paretomon.Delivery{{Object: "o1", Users: []string{"a", "c"}}, {Object: "o2", Users: []string{"b", "d"}}, {Object: "o3"}, {Object: "o4", Users: []string{}}}
	p1 := []paretomon.Delivery{{Object: "o1", Users: []string{}}, {Object: "o2", Users: []string{"a", "d", "e"}}, {Object: "o3", Users: []string{}}, {Object: "o4"}}
	got := mergeDeliveries(objs, [][]paretomon.Delivery{p0, p1})
	want := [][]string{{"a", "c"}, {"a", "b", "d", "e"}, {}, {}}
	for i, d := range got {
		if d.Object != objs[i].Name || d.Users == nil || !slices.Equal(d.Users, want[i]) {
			t.Fatalf("object %d merged as %+v, want users %v", i, d, want[i])
		}
	}
	if &got[0].Users[0] != &p0[0].Users[0] {
		t.Error("the only partition's list was copied")
	}
	if cap(got[1].Users) != 5 {
		t.Errorf("the union of 2 + 3 names has capacity %d, want 5", cap(got[1].Users))
	}
}
