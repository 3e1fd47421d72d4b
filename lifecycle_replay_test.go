package paretomon

// One write path for lifecycle records: a record is checked against the
// current state, logged, then applied, whether it comes from a live call,
// WAL recovery or the follower feed. These tests hold that path from the
// outside: a record that does not apply is refused on both replay paths
// with nothing applied, and a refused call leaves no trace. The
// simulator (sim_test.go) runs random histories of valid and invalid
// calls through a primary, its reopened self and a follower.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

// monitorView is everything a reader observes of a monitor: the alive
// community and its clusters, every frontier, every alive object's C_o,
// the object registry's size and the work counters.
type monitorView struct {
	Users     []string
	Clusters  [][]string
	Frontiers map[string][]string
	Targets   map[string][]string
	Objects   int
	Alive     int
	Applied   uint64
	Counters  [6]uint64
}

func viewOf(t testing.TB, m *Monitor) monitorView {
	t.Helper()
	v := monitorView{
		Users:     m.Users(),
		Clusters:  m.Clusters(),
		Frontiers: map[string][]string{},
		Targets:   map[string][]string{},
		Objects:   m.ObjectCount(),
		Alive:     m.AliveObjectCount(),
		Applied:   m.AppliedSeq(),
	}
	for _, u := range v.Users {
		f, err := m.Frontier(u)
		if err != nil {
			t.Fatalf("Frontier(%s): %v", u, err)
		}
		v.Frontiers[u] = f
	}
	m.mu.RLock()
	var alive []string
	for id := m.objBase; id < m.objectCount(); id++ {
		if m.aliveAt(id) {
			alive = append(alive, m.nameAt(id))
		}
	}
	m.mu.RUnlock()
	for _, name := range alive {
		c, err := m.TargetsOf(name)
		if err != nil {
			t.Fatalf("TargetsOf(%s): %v", name, err)
		}
		v.Targets[name] = c
	}
	s := m.Stats()
	v.Counters = [6]uint64{s.Comparisons, s.FilterComparisons, s.VerifyComparisons, s.Delivered, s.Processed, s.Twins}
	return v
}

// replayCommunity is two users over two attributes; alice asserts
// Apple ≻ Sony.
func replayCommunity(t testing.TB) *Community {
	t.Helper()
	com := NewCommunity(NewSchema("brand", "cpu"))
	alice, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Prefer("brand", "Apple", "Sony"); err != nil {
		t.Fatal(err)
	}
	bob, err := com.AddUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Prefer("cpu", "quad", "dual"); err != nil {
		t.Fatal(err)
	}
	return com
}

// TestReplayRefusesRecordsThatDoNotApply hands each replay path a record
// that cannot apply to the state before it. Recovery must refuse to open
// the store and the follower feed must refuse the record, both with
// ErrCorrupt naming the record's seq, and the follower must be left
// exactly as it was.
func TestReplayRefusesRecordsThatDoNotApply(t *testing.T) {
	bad := []struct {
		name string
		rec  WALRecord
	}{
		{"preference for unknown user", WALRecord{Op: OpPreference, User: "ghost", Attr: "brand", Better: "Apple", Worse: "Acer"}},
		{"retraction for unknown user", WALRecord{Op: OpRetractPreference, User: "ghost", Attr: "brand", Better: "Apple", Worse: "Sony"}},
		{"removal of unknown user", WALRecord{Op: OpRemoveUser, User: "ghost"}},
		{"user with empty name", WALRecord{Op: OpAddUser, Name: ""}},
		{"duplicate user", WALRecord{Op: OpAddUser, Name: "alice"}},
		{"preference on unknown attribute", WALRecord{Op: OpPreference, User: "alice", Attr: "colour", Better: "red", Worse: "blue"}},
		{"retraction on unknown attribute", WALRecord{Op: OpRetractPreference, User: "alice", Attr: "colour", Better: "red", Worse: "blue"}},
		{"user seeded on unknown attribute", WALRecord{Op: OpAddUser, Name: "carol", Prefs: []storage.RecordPref{{Attr: "colour", Better: "red", Worse: "blue"}}}},
		{"preference forming a cycle", WALRecord{Op: OpPreference, User: "alice", Attr: "brand", Better: "Sony", Worse: "Apple"}},
		{"user seeded with a cycle", WALRecord{Op: OpAddUser, Name: "carol", Prefs: []storage.RecordPref{
			{Attr: "cpu", Better: "quad", Worse: "dual"}, {Attr: "cpu", Better: "dual", Worse: "quad"},
		}}},
		{"retraction never asserted", WALRecord{Op: OpRetractPreference, User: "alice", Attr: "brand", Better: "Sony", Worse: "Apple"}},
		{"retraction of a merely implied tuple", WALRecord{Op: OpRetractPreference, User: "alice", Attr: "brand", Better: "Apple", Worse: "Acer"}},
		{"removal of unknown object", WALRecord{Op: OpRemoveObject, Name: "ghost"}},
		{"duplicate object", WALRecord{Op: OpObject, Name: "o1", Values: []string{"Acer", "dual"}}},
		{"object with a wrong value count", WALRecord{Op: OpObject, Name: "o9", Values: []string{"Acer"}}},
		{"unknown op", WALRecord{Op: 99, Name: "o9"}},
	}
	// The history before every bad record: objects, and an assertion
	// chain whose implied tuple Apple ≻ Acer is not retractable.
	prefix := []WALRecord{
		{Op: OpObject, Name: "o1", Values: []string{"Apple", "quad"}},
		{Op: OpObject, Name: "o2", Values: []string{"Sony", "octa"}},
		{Op: OpPreference, User: "alice", Attr: "brand", Better: "Sony", Worse: "Acer"},
		{Op: OpObject, Name: "o3", Values: []string{"Acer", "octa"}},
	}
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmFilterThenVerify} {
		for _, tc := range bad {
			t.Run(fmt.Sprintf("%v/%s", alg, tc.name), func(t *testing.T) {
				com := replayCommunity(t)
				store := NewMemStore()
				for i, rec := range prefix {
					rec.Seq = uint64(i + 1)
					if err := store.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				rec := tc.rec
				rec.Seq = uint64(len(prefix) + 1)
				if err := store.Append(rec); err != nil {
					t.Fatal(err)
				}
				seqText := fmt.Sprintf("record %d", rec.Seq)

				_, err := NewMonitor(com, WithAlgorithm(alg), WithStore(store))
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seqText) {
					t.Errorf("recovery: %v, want ErrCorrupt naming %s", err, seqText)
				}

				cfg := DefaultConfig()
				cfg.Algorithm = alg
				f, err := newFollowerMonitor(com, cfg, 0, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Replay(0, func(r WALRecord) error {
					if r.Seq == rec.Seq {
						return nil
					}
					return f.applyFeedRecord(r)
				}); err != nil {
					t.Fatalf("feeding the valid prefix: %v", err)
				}
				before := viewOf(t, f)
				err = f.applyFeedRecord(rec)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seqText) {
					t.Errorf("feed: %v, want ErrCorrupt naming %s", err, seqText)
				}
				if after := viewOf(t, f); !reflect.DeepEqual(after, before) {
					t.Errorf("the refused record changed the follower:\n got %+v\nwant %+v", after, before)
				}
			})
		}
	}
}

// TestRejectedMutationLeavesNoTrace pins check-before-log for every
// lifecycle refusal: the call is refused before anything is logged or
// changed, so every read is as it was and a reopen sees nothing of it.
func TestRejectedMutationLeavesNoTrace(t *testing.T) {
	cases := []struct {
		name string
		call func(m *Monitor) error
		want error
	}{
		{"AddUser empty name", func(m *Monitor) error { return m.AddUser("", nil) }, ErrEmptyName},
		{"AddUser duplicate", func(m *Monitor) error { return m.AddUser("bob", nil) }, ErrDuplicateUser},
		{"AddUser unknown attribute", func(m *Monitor) error {
			return m.AddUser("carol", []Preference{{Attr: "colour", Better: "red", Worse: "blue"}})
		}, ErrUnknownAttribute},
		{"AddUser cyclic seeds", func(m *Monitor) error {
			return m.AddUser("carol", []Preference{{Attr: "cpu", Better: "quad", Worse: "dual"}, {Attr: "cpu", Better: "dual", Worse: "quad"}})
		}, ErrCycle},
		{"AddPreference cycle", func(m *Monitor) error { return m.AddPreference("alice", "brand", "Acer", "Apple") }, ErrCycle},
		{"AddPreference unknown user", func(m *Monitor) error { return m.AddPreference("ghost", "brand", "Apple", "Acer") }, ErrUnknownUser},
		{"RetractPreference unknown user", func(m *Monitor) error { return m.RetractPreference("ghost", "brand", "Apple", "Sony") }, ErrUnknownUser},
		{"RemoveUser unknown user", func(m *Monitor) error { return m.RemoveUser("ghost") }, ErrUnknownUser},
		{"RetractPreference never asserted", func(m *Monitor) error { return m.RetractPreference("alice", "brand", "Apple", "Acer") }, ErrUnknownPreference},
		{"RemoveObject unknown", func(m *Monitor) error { return m.RemoveObject("ghost") }, ErrUnknownObject},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			com := replayCommunity(t)
			store := NewMemStore()
			m, err := NewMonitor(com, WithStore(store))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []Object{
				{"o1", []string{"Apple", "quad"}}, {"o2", []string{"Sony", "octa"}}, {"o3", []string{"Acer", "dual"}},
			} {
				if _, err := m.Add(o.Name, o.Values...); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AddPreference("alice", "brand", "Sony", "Acer"); err != nil {
				t.Fatal(err)
			}
			logged, err := store.Stats()
			if err != nil {
				t.Fatal(err)
			}
			want := viewOf(t, m)

			if err := tc.call(m); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if st, err := store.Stats(); err != nil || st.AppendedRecords != logged.AppendedRecords {
				t.Errorf("WAL went from %d to %d records (%v); a refused call must not be logged", logged.AppendedRecords, st.AppendedRecords, err)
			}
			if got := viewOf(t, m); !reflect.DeepEqual(got, want) {
				t.Errorf("the refused call changed the monitor:\n got %+v\nwant %+v", got, want)
			}
			reopened, err := NewMonitor(com, WithStore(store))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := viewOf(t, reopened); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened monitor:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// fuzzAsserted is what the fuzz community's four users assert over two
// attributes, the first two alike so the filter-then-verify engines find
// a cluster of more than one.
func fuzzAsserted() map[string][]Preference {
	asserted := map[string][]Preference{}
	for i, chains := range [][2][]string{
		{{"b0", "b1", "b2"}, {"c0", "c1"}},
		{{"b0", "b1", "b2"}, {"c0", "c1", "c2"}},
		{{"b3", "b2", "b1"}, {"c3", "c0"}},
		{{"b4", "b0"}, {"c2", "c3"}},
	} {
		for d, chain := range chains {
			for k := 1; k < len(chain); k++ {
				asserted[fuzzUsers[i]] = append(asserted[fuzzUsers[i]], Preference{Attr: fuzzAttrs[d], Better: chain[k-1], Worse: chain[k]})
			}
		}
	}
	return asserted
}

func fuzzCommunity(t testing.TB) *Community {
	return catalog{attrs: fuzzAttrs[:2]}.community(t, fuzzUsers[:4], fuzzAsserted())
}

// The pools a fuzzed history draws from: names the monitor knows, names
// it does not and the empty name, an attribute outside the schema, so
// calls come out valid and invalid alike.
var (
	fuzzUsers  = []string{"u0", "u1", "u2", "u3", "n4", ""}
	fuzzAttrs  = []string{"brand", "cpu", "colour"}
	fuzzValues = [][]string{{"b0", "b1", "b2", "b3", "b4"}, {"c0", "c1", "c2", "c3"}, {"b0", "b1"}}
)

// fuzzConfig maps a byte to one of twelve engine shapes: Baseline, FTV or
// FTVA, append-only or over a window of 6, on one shard or three.
func fuzzConfig(b byte) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = []Algorithm{AlgorithmBaseline, AlgorithmFilterThenVerify, AlgorithmFilterThenVerifyApprox}[b%3]
	cfg.Window = []int{0, 6}[b/3%2]
	cfg.Workers = []int{1, 3}[b/6%2]
	cfg.Theta1, cfg.Theta2 = 40, 0.3
	return cfg
}
