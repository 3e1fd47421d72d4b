package partition

import (
	"reflect"
	"testing"
)

// FuzzDecodeRing holds the /ring decoder to three promises on any
// input: it never panics; an accepted ring's plan stays within
// maxRingPoints; and Encode → DecodeRing gives back an equal ring, its
// plan and owners included.
func FuzzDecodeRing(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"parts":1,"vnodes":0,"urls":["http://a"]}`,
		`{"version":7,"parts":2,"vnodes":16,"urls":["http://a","http://b","http://c"],"moves":{"u1":2,"u2":0}}`,
		`{"version":3,"parts":1,"vnodes":-3,"urls":["x"],"moves":{}}`,
		`{"version":1,"parts":1,"vnodes":65536,"urls":["x"]}`,
		`{"version":1,"parts":1,"vnodes":4611686018427387904,"urls":["x"]}`,
		`{"version":1,"parts":2,"vnodes":40000,"urls":["x","y"]}`,
		`{"version":0,"parts":1,"urls":["x"]}`,
		`{"version":1,"parts":1,"urls":["x"],"moves":{"u":5}}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rg, err := DecodeRing(data)
		if err != nil {
			return
		}
		p := rg.plan
		if n := len(p.ring); n > maxRingPoints || n != p.parts*p.vnodes {
			t.Fatalf("accepted a plan of %d points (%d × %d), cap %d", n, p.parts, p.vnodes, maxRingPoints)
		}
		enc := rg.Encode()
		back, err := DecodeRing(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted ring: %v\n%s", err, enc)
		}
		if back.Version != rg.Version || back.Parts != rg.Parts || back.VNodes != rg.VNodes ||
			!reflect.DeepEqual(back.URLs, rg.URLs) || len(back.Moves) != len(rg.Moves) {
			t.Fatalf("round trip changed the ring:\n got %+v\nwant %+v", back, rg)
		}
		if !reflect.DeepEqual(back.plan, rg.plan) {
			t.Fatal("round trip changed the plan")
		}
		users := []string{"", "u0", "u1", "alice"}
		for u, idx := range rg.Moves {
			if back.Moves[u] != idx {
				t.Fatalf("round trip moved pin %q: %d → %d", u, idx, back.Moves[u])
			}
			users = append(users, u)
		}
		for _, u := range users {
			if back.Owner(u) != rg.Owner(u) || back.PlanOwner(u) != rg.PlanOwner(u) {
				t.Fatalf("round trip changed the owner of %q", u)
			}
		}
	})
}
