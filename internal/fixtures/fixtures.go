// Package fixtures encodes the running example of Sultana & Li (EDBT 2018):
// the product table (Table 1), the user preference DAGs (Table 2), the
// brand-only clustering example (Table 3), and the sliding-window product
// table (Table 8). The preference DAGs are reconstructed from the paper's
// prose and worked examples (Examples 1.1, 3.5, 4.4, 4.7, 4.8, 5.1–5.5,
// 6.2, 6.3, 6.8, 6.9, 7.3, 7.6); every claim those examples make is
// asserted against these fixtures by the test suites, so the fixtures are
// exactly the instance the paper reasons about.
//
// Known paper inconsistency: Table 9 lists P_c1 = {o1, o3} for window
// [1, 6] over Table 8, but by the paper's own preference relations
// o3 = (12″, Apple, dual) dominates o1 = (17″, Lenovo, dual) for c1
// ((10−12.9 ≻ 16−18.9) from Example 3.5, (Apple ≻ Lenovo) from Example
// 1.1, CPU equal). The window tests therefore validate against a
// recompute-from-scratch reference rather than Table 9/10 verbatim.
//
// world.go is the engine tests' scaffolding: RandomWorld, oracle answers by id.
package fixtures

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// Attribute names of the laptop example, in table-column order.
const (
	AttrDisplay = "display"
	AttrBrand   = "brand"
	AttrCPU     = "CPU"
)

// Display buckets used by Table 2.
const (
	DUnder10 = "9.9-under"
	D10to12  = "10-12.9"
	D13to15  = "13-15.9"
	D16to18  = "16-18.9"
	D19up    = "19-up"
)

// DisplayBucket maps a numeric display size (inches) to its Table 2 bucket.
func DisplayBucket(inches float64) string {
	switch {
	case inches < 10:
		return DUnder10
	case inches < 13:
		return D10to12
	case inches < 16:
		return D13to15
	case inches < 19:
		return D16to18
	default:
		return D19up
	}
}

// Laptops is the full laptop example: domains, the 16 products of Table 1,
// and the preference profiles of Table 2 (c1, c2, plus the paper's derived
// virtual users U and Û for cross-checking).
type Laptops struct {
	Domains []*order.Domain // display, brand, CPU
	Objects []object.Object // o1..o16 (ids 0..15)
	C1, C2  *pref.Profile
	// U is the common preference relation of {c1, c2} as depicted in
	// Table 2 (equal to C1 ∩ C2; tests assert this).
	U *pref.Profile
	// UHat is the approximate common preference relation Û of Table 2.
	UHat *pref.Profile
}

type rawProduct struct {
	display float64
	brand   string
	cpu     string
}

// Table 1 of the paper, o1..o16 in order.
var table1 = []rawProduct{
	{12, "Apple", "single"},
	{14, "Apple", "dual"},
	{15, "Samsung", "dual"},
	{19, "Toshiba", "dual"},
	{9, "Samsung", "quad"},
	{11.5, "Sony", "single"},
	{9.5, "Lenovo", "quad"},
	{12.5, "Apple", "dual"},
	{19.5, "Sony", "single"},
	{9.5, "Lenovo", "triple"},
	{9, "Toshiba", "triple"},
	{8.5, "Samsung", "triple"},
	{14.5, "Sony", "dual"},
	{17, "Sony", "single"},
	{16.5, "Lenovo", "quad"},
	{16, "Toshiba", "single"},
}

// Table 8 of the paper (sliding-window example), o1..o7 in order.
var table8 = []rawProduct{
	{17, "Lenovo", "dual"},
	{9.5, "Sony", "single"},
	{12, "Apple", "dual"},
	{16, "Lenovo", "quad"},
	{19, "Toshiba", "single"},
	{12.5, "Samsung", "quad"},
	{14, "Apple", "dual"},
}

func makeDomains() []*order.Domain {
	dd := order.NewDomain(AttrDisplay)
	for _, v := range []string{DUnder10, D10to12, D13to15, D16to18, D19up} {
		dd.Intern(v)
	}
	db := order.NewDomain(AttrBrand)
	for _, v := range []string{"Apple", "Lenovo", "Samsung", "Sony", "Toshiba"} {
		db.Intern(v)
	}
	dc := order.NewDomain(AttrCPU)
	for _, v := range []string{"single", "dual", "triple", "quad"} {
		dc.Intern(v)
	}
	return []*order.Domain{dd, db, dc}
}

func makeObjects(doms []*order.Domain, raw []rawProduct) []object.Object {
	objs := make([]object.Object, len(raw))
	for i, p := range raw {
		objs[i] = object.Object{
			ID: i,
			Attrs: []int32{
				int32(doms[0].Intern(DisplayBucket(p.display))),
				int32(doms[1].Intern(p.brand)),
				int32(doms[2].Intern(p.cpu)),
			},
		}
	}
	return objs
}

func profile(doms []*order.Domain, display, brand, cpu [][2]string) *pref.Profile {
	p := pref.NewProfile(doms)
	for i, pairs := range [][][2]string{display, brand, cpu} {
		for _, t := range pairs {
			if err := p.Relation(i).AddValues(t[0], t[1]); err != nil {
				panic(fmt.Sprintf("fixtures: bad tuple %v on attr %d: %v", t, i, err))
			}
		}
	}
	return p
}

// NewLaptops builds the laptop example. Each call returns fresh, mutable
// copies so tests can mutate freely.
func NewLaptops() *Laptops {
	doms := makeDomains()
	l := &Laptops{Domains: doms, Objects: makeObjects(doms, table1)}

	// c1 (Table 2): display 13-15.9 ≻ 10-12.9 ≻ {16-18.9, 19-up} ≻ 9.9-under;
	// brand Apple ≻ Lenovo ≻ {Sony, Toshiba, Samsung}; CPU dual ≻ {triple,
	// quad} ≻ single.
	l.C1 = profile(doms,
		[][2]string{{D13to15, D10to12}, {D10to12, D16to18}, {D10to12, D19up}, {D16to18, DUnder10}, {D19up, DUnder10}},
		[][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Sony"}, {"Lenovo", "Toshiba"}, {"Lenovo", "Samsung"}},
		[][2]string{{"dual", "triple"}, {"dual", "quad"}, {"triple", "single"}, {"quad", "single"}},
	)

	// c2 (Table 2): display chain 13-15.9 ≻ 16-18.9 ≻ 10-12.9 ≻ 19-up ≻
	// 9.9-under (the 16-18.9 ≻ 10-12.9 edge is fixed by Table 9's
	// PB_c2 = {o3,o4,o5,o6} and Table 10's P_c2 = {o4,o7}, which require
	// o4 ≻_c2 o6 over Table 8);
	// brand {Apple, Lenovo} ≻ Toshiba ≻ Sony, Lenovo ≻ Samsung (Apple and
	// Samsung incomparable, per Sec. 1 "its preference does not oppose it");
	// CPU quad ≻ triple ≻ dual ≻ single (Example 4.4).
	l.C2 = profile(doms,
		[][2]string{{D13to15, D16to18}, {D16to18, D10to12}, {D10to12, D19up}, {D19up, DUnder10}},
		[][2]string{{"Apple", "Toshiba"}, {"Lenovo", "Toshiba"}, {"Toshiba", "Sony"}, {"Lenovo", "Samsung"}},
		[][2]string{{"quad", "triple"}, {"triple", "dual"}, {"dual", "single"}},
	)

	// U = common preferences of {c1, c2} as depicted in Table 2. Tests
	// assert U == C1 ∩ C2.
	l.U = profile(doms,
		[][2]string{{D13to15, D10to12}, {D13to15, D16to18}, {D13to15, D19up}, {D13to15, DUnder10},
			{D10to12, D19up}, {D10to12, DUnder10}, {D16to18, DUnder10}, {D19up, DUnder10}},
		[][2]string{{"Apple", "Toshiba"}, {"Apple", "Sony"}, {"Lenovo", "Toshiba"}, {"Lenovo", "Sony"}, {"Lenovo", "Samsung"}},
		[][2]string{{"dual", "single"}, {"triple", "single"}, {"quad", "single"}},
	)

	// Û = approximate common preferences of Table 2: display is the chain
	// 13-15.9 ≻ 10-12.9 ≻ 16-18.9 ≻ 19-up ≻ 9.9-under; brand has
	// {Apple, Lenovo} on top, {Sony, Toshiba} in the middle, Samsung at the
	// bottom; CPU is the chain dual ≻ quad ≻ triple ≻ single (Example 6.3
	// requires quad above triple so that o15 replaces o7 in P̂U).
	l.UHat = profile(doms,
		[][2]string{{D13to15, D10to12}, {D10to12, D16to18}, {D16to18, D19up}, {D19up, DUnder10}},
		[][2]string{{"Apple", "Sony"}, {"Apple", "Toshiba"}, {"Lenovo", "Sony"}, {"Lenovo", "Toshiba"},
			{"Sony", "Samsung"}, {"Toshiba", "Samsung"}},
		[][2]string{{"dual", "quad"}, {"quad", "triple"}, {"triple", "single"}},
	)
	return l
}

// NewLaptopsSW returns the Table 8 object stream over the same domains and
// preference profiles (Sec. 7's running example).
func NewLaptopsSW() (*Laptops, []object.Object) {
	l := NewLaptops()
	return l, makeObjects(l.Domains, table8)
}

// Brands is the Table 3 example: six users' preferences over brand only,
// grouped into clusters U1 = {c1, c2}, U2 = {c3, c4}, U3 = {c5, c6}.
// The exact per-user relations are reconstructed from the frequency
// vectors of Examples 6.8 and 6.9.
type Brands struct {
	Dom      *order.Domain
	C        []*order.Relation // c1..c6 (index 0..5)
	U        []*order.Relation // U1..U3 common relations (index 0..2)
	Profiles []*pref.Profile   // the same six users as single-attribute profiles
}

// NewBrands builds the Table 3 example.
func NewBrands() *Brands {
	dom := order.NewDomain(AttrBrand)
	for _, v := range []string{"Apple", "Lenovo", "Samsung", "Toshiba"} {
		dom.Intern(v)
	}
	mk := func(pairs [][2]string) *order.Relation {
		return order.MustFromTuples(dom, pairs)
	}
	b := &Brands{Dom: dom}
	b.C = []*order.Relation{
		// c1: Apple ≻ Lenovo ≻ Samsung, Toshiba ≻ Samsung.
		mk([][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}, {"Toshiba", "Samsung"}}),
		// c2: Apple ≻ Lenovo, Toshiba ≻ Lenovo ≻ Samsung.
		mk([][2]string{{"Apple", "Lenovo"}, {"Toshiba", "Lenovo"}, {"Lenovo", "Samsung"}}),
		// c3: Samsung ≻ Lenovo ≻ Toshiba ≻ Apple.
		mk([][2]string{{"Samsung", "Lenovo"}, {"Lenovo", "Toshiba"}, {"Toshiba", "Apple"}}),
		// c4: Samsung ≻ Lenovo ≻ {Apple, Toshiba}.
		mk([][2]string{{"Samsung", "Lenovo"}, {"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}}),
		// c5: Lenovo ≻ {Apple, Toshiba}, Apple ≻ Samsung, Toshiba ≻ Samsung.
		mk([][2]string{{"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}, {"Apple", "Samsung"}, {"Toshiba", "Samsung"}}),
		// c6: Lenovo ≻ {Apple, Toshiba}, Apple ≻ {Toshiba, Samsung}.
		mk([][2]string{{"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}, {"Apple", "Samsung"}, {"Apple", "Toshiba"}}),
	}
	b.U = []*order.Relation{
		b.C[0].Intersect(b.C[1]),
		b.C[2].Intersect(b.C[3]),
		b.C[4].Intersect(b.C[5]),
	}
	for _, r := range b.C {
		p := pref.NewProfile([]*order.Domain{dom})
		p.SetRelation(0, r.Clone())
		b.Profiles = append(b.Profiles, p)
	}
	return b
}
