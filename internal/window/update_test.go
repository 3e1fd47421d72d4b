package window_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/pref"
	"repro/internal/window"
)

func TestBaselineSWApplyPreference(t *testing.T) {
	l := fixtures.NewLaptops()
	b := window.NewSourcedBaselineSW([]*pref.Profile{l.C2.Clone()}, 15, nil)
	fixtures.Feed(b, l.Objects[:15])
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 15)) {
		t.Fatalf("frontier = %v", got)
	}
	// c2 learns Apple ≻ Samsung: o3 leaves the frontier and the buffer
	// (it is dominated by the succeeding o15? no — by the *preceding* o2,
	// so it leaves P but stays in PB until a successor dominates it).
	ap, _ := l.Domains[1].ID("Apple")
	sa, _ := l.Domains[1].ID("Samsung")
	if err := b.ApplyPreference(0, 1, ap, sa); err != nil {
		t.Fatal(err)
	}
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 15)) {
		t.Fatalf("frontier after update = %v", got)
	}
	for _, id := range b.Buffer(0) {
		if id == 2 { // o3 (0-based id 2): preceded by o2, so it may stay
			// buffered only if no successor dominates it — o2 precedes, so
			// o3 stays. Just ensure buffer is still a valid set.
			break
		}
	}
}

// Online updates agree with the definition over the updated preferences
// once the stream has gone on.
func TestQuickWindowApplyPreferenceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 4, 2, 5, 50, 4)
		w := 3 + r.Intn(10)
		usersA := make([]*pref.Profile, len(users))
		for i, u := range users {
			usersA[i] = u.Clone()
		}
		clusters := []core.Cluster{
			{Members: []int{0, 1}, Common: pref.Common([]*pref.Profile{usersA[0], usersA[1]})},
			{Members: []int{2, 3}, Common: pref.Common([]*pref.Profile{usersA[2], usersA[3]})},
		}
		live := window.NewSourcedFilterThenVerifySW(usersA, clusters, w, nil)

		cut := 25 + r.Intn(20)
		fixtures.Feed(live, objs[:cut])
		for k := 0; k < 4; k++ {
			_ = live.ApplyPreference(r.Intn(4), r.Intn(2), r.Intn(5), r.Intn(5))
		}
		// Continue the stream after the update.
		fixtures.Feed(live, objs[cut:])

		// usersA were updated in place.
		for c := range users {
			if !reflect.DeepEqual(fixtures.Sorted(live.UserFrontier(c)), fixtures.Frontier(fixtures.Asserted(usersA[c]), objs[len(objs)-w:])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The buffer invariant (Def. 7.4) holds after an online update.
func TestQuickBufferInvariantAfterUpdate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 2, 2, 5, 40, 4)
		w := 3 + r.Intn(8)
		us := []*pref.Profile{users[0].Clone(), users[1].Clone()}
		b := window.NewSourcedBaselineSW(us, w, nil)
		fixtures.Feed(b, objs)
		for k := 0; k < 3; k++ {
			_ = b.ApplyPreference(r.Intn(2), r.Intn(2), r.Intn(5), r.Intn(5))
		}
		for c, u := range us {
			if !reflect.DeepEqual(b.Buffer(c), fixtures.Buffer(fixtures.Asserted(u), objs[len(objs)-w:])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
