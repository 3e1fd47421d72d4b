package paretomon

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// ---- deliveries in name order ----
//
// A delivery, TargetsOf and Clusters list users in name order; the
// Monitor reads that order from its rank table (state.rank), not from a
// string sort per object. The tests below pick names whose order differs
// from their slot order — "u2" after "u10", upper case before lower,
// multi-byte UTF-8 last — and change the community every way a rank can
// move: a join that sorts first, a leave and a re-join under the same
// name, a snapshot restore and a follower.

// rankedUsers are the construction-time users, in slot order.
var rankedUsers = []string{"u2", "u10", "b", "émile", "B", "Zoë", "u1", "ärger", "日本"}

// nameOrderHarness drives a Monitor and the definitional model in lock
// step and holds every name list the Monitor returns to sort.Strings and
// to the model.
type nameOrderHarness struct {
	t      *testing.T
	r      *rand.Rand
	model  *defModel
	next   int // the next object's number
	nobody int // deliveries that reached no user
}

// prefs draws a few acyclic tuples over dupSpace.
func (h *nameOrderHarness) prefs() []Preference {
	set := map[Preference]bool{}
	for range 2 + h.r.Intn(2) {
		set[dupSpace.tuple(h.r)] = true
	}
	return slices.SortedFunc(maps.Keys(set), func(a, b Preference) int {
		return cmp.Or(cmp.Compare(a.Attr, b.Attr), cmp.Compare(a.Better, b.Better), cmp.Compare(a.Worse, b.Worse))
	})
}

// feed ingests n fresh objects on m as one batch and checks each delivery
// against the model at its arrival.
func (h *nameOrderHarness) feed(m *Monitor, n int) []Delivery {
	h.t.Helper()
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{Name: fmt.Sprintf("o%04d", h.next), Values: dupSpace.object(h.r)}
		h.next++
	}
	ds, err := m.AddBatch(objs)
	if err != nil {
		h.t.Fatal(err)
	}
	for i, o := range objs {
		h.model.add(o)
		_, targets := h.model.answer()
		h.sorted("delivery of "+o.Name, ds[i].Users, targets[o.Name])
		if len(ds[i].Users) == 0 {
			h.nobody++
		}
	}
	return ds
}

// sorted fails unless got is a non-nil slice in name order equal to want.
func (h *nameOrderHarness) sorted(what string, got, want []string) {
	h.t.Helper()
	if got == nil {
		h.t.Fatalf("%s: nil, want a non-nil slice", what)
	}
	if !sort.StringsAreSorted(got) {
		h.t.Fatalf("%s: %q is not in name order", what, got)
	}
	if !slices.Equal(got, want) {
		h.t.Fatalf("%s: %q, the definition says %q", what, got, want)
	}
}

// check holds every C_o and the clustering of m to the model.
func (h *nameOrderHarness) check(label string, m *Monitor, clustered bool) {
	h.t.Helper()
	_, targets := h.model.answer()
	for name, want := range targets {
		got, err := m.TargetsOf(name)
		if err != nil {
			h.t.Fatalf("%s: TargetsOf(%s): %v", label, name, err)
		}
		h.sorted(label+": TargetsOf("+name+")", got, want)
	}
	cs := m.Clusters()
	if !clustered {
		if cs != nil {
			h.t.Fatalf("%s: Baseline reports clusters %q", label, cs)
		}
		return
	}
	var all []string
	for i, names := range cs {
		if !sort.StringsAreSorted(names) {
			h.t.Fatalf("%s: cluster %d %q is not in name order", label, i, names)
		}
		all = append(all, names...)
	}
	slices.Sort(all)
	if want := slices.Sorted(maps.Keys(h.model.users)); !slices.Equal(all, want) {
		h.t.Fatalf("%s: clusters hold %q, the alive users are %q", label, all, want)
	}
}

func (h *nameOrderHarness) addUser(m *Monitor, name string) {
	h.t.Helper()
	ps := h.prefs()
	if err := m.AddUser(name, ps); err != nil {
		h.t.Fatal(err)
	}
	h.model.setUser(name, ps)
}

func TestDeliveriesFollowNameOrder(t *testing.T) {
	for _, cfg := range exactAppendOnly {
		t.Run(cfg.name, func(t *testing.T) {
			h := &nameOrderHarness{t: t, r: rand.New(rand.NewSource(5))}
			asserted := map[string][]Preference{}
			for _, u := range rankedUsers {
				asserted[u] = h.prefs()
			}
			h.model = newDefModel(asserted)
			com := dupSpace.community(t, rankedUsers, asserted)
			store := NewMemStore()
			opts := append([]Option{WithStore(store), WithWorkers(2)}, cfg.opts...)
			clustered := cfg.name != "Baseline"
			m, err := NewMonitor(com, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h.feed(m, 12)
			h.check("construction", m, clustered)

			h.addUser(m, "Aaron") // sorts before every construction-time name
			h.feed(m, 8)
			h.check("AddUser Aaron", m, clustered)

			if err := m.RemoveUser("u10"); err != nil {
				t.Fatal(err)
			}
			h.model.dropUser("u10")
			h.feed(m, 4)
			h.addUser(m, "u10") // a fresh slot under a removed user's name
			h.feed(m, 8)
			h.check("re-added u10", m, clustered)

			if err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
			snapSeq := m.AppliedSeq()
			h.feed(m, 6) // a WAL tail behind the snapshot

			restored, err := NewMonitor(com, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h.check("snapshot restore", restored, clustered)
			h.addUser(restored, "0th") // sorts first, onto a restored table
			h.feed(restored, 8)
			h.check("AddUser after restore", restored, clustered)

			// A follower that bootstrapped from the community, then had its
			// state replaced by one built from the snapshot, as a
			// re-bootstrap does, and tails the log from there.
			fcfg := restored.cfg
			fcfg.Store = nil
			follower, err := newFollowerMonitor(com, fcfg, 0, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			seq, body, ok, err := store.LoadSnapshot()
			if err != nil || !ok || seq != snapSeq {
				t.Fatalf("LoadSnapshot: seq %d ok %v err %v, want seq %d", seq, ok, err, snapSeq)
			}
			fresh, err := newFollowerMonitor(com, fcfg, seq, body, true)
			if err != nil {
				t.Fatal(err)
			}
			follower.mu.Lock()
			follower.state = fresh.state
			follower.mu.Unlock()
			if err := store.Replay(seq, follower.applyFeedRecord); err != nil {
				t.Fatal(err)
			}
			h.check("follower", follower, clustered)

			ch, cancel, err := follower.Subscribe("0th")
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			from := follower.AppliedSeq()
			h.addUser(restored, "Ω")
			ds := h.feed(restored, 10)
			if err := store.Replay(from, follower.applyFeedRecord); err != nil {
				t.Fatal(err)
			}
			h.check("follower tail", follower, clustered)
			for _, d := range ds {
				if !slices.Contains(d.Users, "0th") {
					continue
				}
				select {
				case got := <-ch:
					if !reflect.DeepEqual(got, d) {
						t.Fatalf("the follower delivered %+v, the primary %+v", got, d)
					}
				default:
					t.Fatalf("the follower did not deliver %s to 0th", d.Object)
				}
			}
			if h.nobody == 0 {
				t.Fatal("no delivery reached nobody; the history misses that case")
			}
		})
	}
}

// TestSortedNamesByRank holds sortedNames to sort.Strings over
// communities on both sides of a word, for few and many targets, with the
// rank table built whole and grown one join at a time.
func TestSortedNamesByRank(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "B", "z", "Z", "0", "é", "ü", "日", "u1", "u10", "u2"}
	name := func() string {
		var s string
		for range 1 + r.Intn(3) {
			s += alphabet[r.Intn(len(alphabet))]
		}
		return s // repeats are likely: a re-added name
	}
	for _, n := range []int{1, 63, 64, 65, 700, 3000} {
		var grown state
		for i := range n {
			grown.userNames = append(grown.userNames, name())
			if i == n/2 {
				grown.rankUsers()
			} else if i > n/2 {
				grown.rankNewUser()
			}
		}
		whole := state{userNames: grown.userNames}
		whole.rankUsers()
		if !slices.Equal(grown.rank, whole.rank) || !slices.Equal(grown.byRank, whole.byRank) || len(grown.rankBits) != len(whole.rankBits) {
			t.Fatalf("n=%d: joins one at a time rank %v, a whole build %v", n, grown.rank, whole.rank)
		}
		for _, k := range []int{0, 1, 2, 8, 60, n / 2, n} {
			if k > n {
				continue
			}
			idx := r.Perm(n)[:k]
			want := make([]string, k)
			for i, c := range idx {
				want[i] = whole.userNames[c]
			}
			sort.Strings(want)
			got := whole.sortedNames(idx)
			if got == nil || !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: sortedNames %q, want %q", n, k, got, want)
			}
			if slices.ContainsFunc(whole.rankBits, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("n=%d k=%d: sortedNames left rank bits set", n, k)
			}
		}
	}
}

// ---- a refused batch claims nothing ----

// failingStore is a Store whose Append fails once fail is set.
type failingStore struct {
	Store
	fail bool
}

func (s *failingStore) Append(recs ...WALRecord) error {
	if s.fail {
		return errors.New("disk full")
	}
	return s.Store.Append(recs...)
}

// TestRefusedBatchClaimsNothing: validation claims each name as it checks
// it, so a refusal must give every claim back. After each refusal no name
// of the refused part is registered, an alive name it repeated still is,
// and a later valid batch can take the refused names.
func TestRefusedBatchClaimsNothing(t *testing.T) {
	com := batchCommunity(t)
	fs := &failingStore{Store: NewMemStore()}
	m, err := NewMonitor(com, WithStore(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBatch(batchStream(1, 3)); err != nil {
		t.Fatal(err)
	}
	alive := batchStream(1, 1)[0].Name
	obj := func(name string) Object { return Object{Name: name, Values: batchStream(1, 1)[0].Values} }
	unregistered := func(label string, names ...string) {
		t.Helper()
		for _, n := range names {
			if m.HasObject(n) {
				t.Fatalf("%s: %q is registered", label, n)
			}
		}
	}
	cases := []struct {
		name  string
		batch []Object
		index int
		err   error
	}{
		{"duplicate inside the batch", []Object{obj("x1"), obj("x2"), obj("x1")}, 2, ErrDuplicateObject},
		{"duplicate of an alive name", []Object{obj("x1"), obj("x2"), obj(alive)}, 2, ErrDuplicateObject},
		{"schema mismatch", []Object{obj("x1"), obj("x2"), {Name: "x3", Values: []string{"only one"}}}, 2, ErrSchemaMismatch},
	}
	for _, c := range cases {
		_, err := m.AddBatch(c.batch)
		var be *BatchError
		if !errors.As(err, &be) || be.Index != c.index || !errors.Is(err, c.err) {
			t.Fatalf("%s: err %v, want a BatchError at %d wrapping %v", c.name, err, c.index, c.err)
		}
		unregistered(c.name, "x1", "x2", "x3")
		if !m.HasObject(alive) {
			t.Fatalf("%s: the refusal freed the alive name %q", c.name, alive)
		}
	}
	if _, err := m.Add("x1"); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("Add with no values: %v", err)
	}
	unregistered("a refused Add", "x1")

	// A retry's rest may not repeat its applied prefix, even where the
	// prefix's object has been removed since and its name is free.
	id := BatchID{Writer: "w", Seq: 1}
	if _, err := m.AddBatchOnce(id, []Object{obj("p1"), obj("p2")}); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveObject("p1"); err != nil {
		t.Fatal(err)
	}
	for _, again := range []string{"p1", "p2"} {
		_, err := m.AddBatchOnce(id, []Object{obj("p1"), obj("p2"), obj("q1"), obj(again)})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, ErrDuplicateObject) {
			t.Fatalf("retry repeating %s: err %v, want a BatchError at 3", again, err)
		}
		unregistered("retry repeating "+again, "p1", "q1")
		if !m.HasObject("p2") {
			t.Fatalf("retry repeating %s: the refusal freed the prefix's alive name p2", again)
		}
	}

	// The refused names are free for a valid batch.
	ds, err := m.AddBatch([]Object{obj("x1"), obj("x2"), obj("x3"), obj("q1"), obj("p1")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if !m.HasObject(d.Object) {
			t.Fatalf("%q was applied but is not registered", d.Object)
		}
	}

	// A WAL append that fails applies nothing and claims nothing.
	fs.fail = true
	if _, err := m.AddBatch([]Object{obj("y1"), obj("y2")}); !errors.Is(err, ErrStore) {
		t.Fatalf("AddBatch over a failing WAL: %v", err)
	}
	if _, err := m.Add("y3", obj("y3").Values...); !errors.Is(err, ErrStore) {
		t.Fatalf("Add over a failing WAL: %v", err)
	}
	unregistered("a failed append", "y1", "y2", "y3")
}

// BenchmarkDeliveryNames prices one delivery's name list over a community
// of n users named u0…u{n-1} (slot order is not name order) for k targets
// drawn at random: "rank" is sortedNames, "strings" the string sort it
// replaced.
func BenchmarkDeliveryNames(b *testing.B) {
	for _, n := range []int{160, 10_000, 100_000} {
		var s state
		for i := range n {
			s.userNames = append(s.userNames, fmt.Sprintf("u%d", i))
		}
		s.rankUsers()
		for _, k := range []int{2, 8, 60} {
			r := rand.New(rand.NewSource(1))
			sets := make([][]int, 256)
			for i := range sets {
				sets[i] = slices.Clone(r.Perm(n)[:k])
			}
			b.Run(fmt.Sprintf("n=%d/k=%d/rank", n, k), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					s.sortedNames(sets[i%len(sets)])
					i++
				}
			})
			b.Run(fmt.Sprintf("n=%d/k=%d/strings", n, k), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					idx := sets[i%len(sets)]
					out := make([]string, len(idx))
					for j, c := range idx {
						out[j] = s.userNames[c]
					}
					sort.Strings(out)
					i++
				}
			})
		}
	}
}
