package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/pref"
)

func TestBaselineApplyPreference(t *testing.T) {
	l := fixtures.NewLaptops()
	b := core.NewBaseline([]*pref.Profile{l.C2.Clone()}, nil)
	fixtures.Feed(b, l.Objects[:15])
	// P_c2 = {o2, o3, o15}.
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 15)) {
		t.Fatalf("frontier = %v", got)
	}
	// c2 learns Apple ≻ Samsung: o2 now dominates o3.
	br, _ := l.Domains[1].ID("Apple")
	sa, _ := l.Domains[1].ID("Samsung")
	if err := b.ApplyPreference(0, 1, br, sa); err != nil {
		t.Fatal(err)
	}
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 15)) {
		t.Fatalf("frontier after update = %v, want %v", got, fixtures.PaperIDs(2, 15))
	}
	if got := b.Targets(2); got != nil {
		t.Errorf("C_o3 should be empty after update, got %v", got)
	}
}

func TestApplyPreferenceRejectsCycle(t *testing.T) {
	l := fixtures.NewLaptops()
	b := core.NewBaseline([]*pref.Profile{l.C1.Clone()}, nil)
	a, _ := l.Domains[1].ID("Apple")
	le, _ := l.Domains[1].ID("Lenovo")
	if err := b.ApplyPreference(0, 1, le, a); err == nil {
		t.Fatal("reverse of an existing tuple must be rejected")
	}
	if err := b.ApplyPreference(99, 1, a, le); err == nil {
		t.Fatal("unknown user must be rejected")
	}
}

// After an online update, the engine must agree with the definition over
// the updated preferences.
func TestQuickApplyPreferenceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 4, 2, 5, 40, 4)
		clusters := []core.Cluster{
			{Members: []int{0, 1}, Common: pref.Common([]*pref.Profile{users[0], users[1]})},
			{Members: []int{2, 3}, Common: pref.Common([]*pref.Profile{users[2], users[3]})},
		}
		// Deep-copy user profiles for the two engines.
		usersA := make([]*pref.Profile, len(users))
		usersB := make([]*pref.Profile, len(users))
		for i, u := range users {
			usersA[i] = u.Clone()
			usersB[i] = u.Clone()
		}
		cloneClusters := func(us []*pref.Profile) []core.Cluster {
			out := make([]core.Cluster, len(clusters))
			for i, cl := range clusters {
				members := make([]*pref.Profile, len(cl.Members))
				for j, m := range cl.Members {
					members[j] = us[m]
				}
				out[i] = core.Cluster{Members: cl.Members, Common: pref.Common(members)}
			}
			return out
		}

		live := core.NewFilterThenVerify(usersA, cloneClusters(usersA), nil)
		liveBase := core.NewBaseline(usersB, nil)
		fixtures.Feed(live, objs)
		fixtures.Feed(liveBase, objs)

		// Apply a few random (accepted) preference updates online.
		for k := 0; k < 5; k++ {
			c := r.Intn(len(users))
			d := r.Intn(2)
			x, y := r.Intn(5), r.Intn(5)
			errA := live.ApplyPreference(c, d, x, y)
			errB := liveBase.ApplyPreference(c, d, x, y)
			if (errA == nil) != (errB == nil) {
				return false
			}
		}

		for c := range users {
			want := fixtures.Frontier(fixtures.Asserted(usersA[c]), objs)
			if !reflect.DeepEqual(fixtures.Sorted(live.UserFrontier(c)), want) {
				return false
			}
			if !reflect.DeepEqual(fixtures.Sorted(liveBase.UserFrontier(c)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
