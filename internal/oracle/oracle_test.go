package oracle_test

import (
	"go/build"
	"reflect"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
)

// The oracle is the reference the engines are held to, so it must never
// start calling the kernel it checks: its non-test code imports the
// standard library and nothing else.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg.Imports {
		dep, err := build.Import(path, "", build.FindOnly)
		if err != nil || !dep.Goroot {
			t.Errorf("oracle imports %q, which is not in the standard library", path)
		}
	}
}

// On the paper's own instance the oracle, fed nothing but the members'
// asserted tuples, gives exactly the frontiers the engine tests assert:
// Examples 3.5 and 4.8 for P_c1 and P_c2, Examples 4.4, 4.7 and 4.8 for
// P_U under the common relation, Examples 7.3 and 7.6 for the window.
func TestPaperInstance(t *testing.T) {
	l := fixtures.NewLaptops()
	c1, c2 := fixtures.Asserted(l.C1), fixtures.Asserted(l.C2)
	u := oracle.Common(c1, c2)
	ids := fixtures.PaperIDs
	for _, tc := range []struct {
		name string
		p    oracle.Prefs[int32]
		objs []object.Object
		want []int
	}{
		{"P_c1 after o14", c1, l.Objects[:14], ids(2)},
		{"P_c2 after o14", c2, l.Objects[:14], ids(2, 3, 7)},
		{"P_c1 after o15", c1, l.Objects[:15], ids(2)},
		{"P_c2 after o15", c2, l.Objects[:15], ids(2, 3, 15)},
		{"P_U after o14", u, l.Objects[:14], ids(2, 3, 7, 10)},
		{"P_U after o15", u, l.Objects[:15], ids(2, 3, 10, 15)},
		{"P_c1 over (5, 10]", c1, l.Objects[5:10], ids(8)},
		{"P_c2 over (5, 10]", c2, l.Objects[5:10], ids(7, 8)},
	} {
		if got := fixtures.Frontier(tc.p, tc.objs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got, want := fixtures.Buffer(c1, l.Objects[5:10]), ids(8, 9, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("PB_c1 over (5, 10] = %v, want %v", got, want)
	}
}
