package paretomon_test

import (
	"errors"
	"fmt"
	"testing"

	paretomon "repro"
	"repro/internal/partition"
)

// TestErrorTaxonomy drives every public failure path and checks that the
// returned error wraps the advertised sentinel, so callers can dispatch
// with errors.Is instead of string matching.
func TestErrorTaxonomy(t *testing.T) {
	s := paretomon.NewSchema("brand", "CPU")
	c := paretomon.NewCommunity(s)
	u, err := c.AddUser("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Prefer("brand", "Apple", "Lenovo"); err != nil {
		t.Fatal(err)
	}
	m, err := paretomon.NewMonitor(c, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("o1", "Apple", "dual"); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"empty user name", onlyErr(c.AddUser("")), paretomon.ErrEmptyName},
		{"duplicate user", onlyErr(c.AddUser("u")), paretomon.ErrDuplicateUser},
		{"unknown attribute", u.Prefer("nope", "a", "b"), paretomon.ErrUnknownAttribute},
		{"reflexive preference", u.Prefer("brand", "x", "x"), paretomon.ErrCycle},
		{"cyclic preference", u.Prefer("brand", "Lenovo", "Apple"), paretomon.ErrCycle},
		{"empty object name", addErr(m, ""), paretomon.ErrEmptyName},
		{"duplicate object", addErr(m, "o1", "Apple", "dual"), paretomon.ErrDuplicateObject},
		{"arity mismatch", addErr(m, "o2", "Apple"), paretomon.ErrSchemaMismatch},
		{"unknown user frontier", onlyErr(m.Frontier("ghost")), paretomon.ErrUnknownUser},
		{"unknown object targets", onlyErr(m.TargetsOf("ghost")), paretomon.ErrUnknownObject},
		{"unknown user subscribe", subErr(m, "ghost"), paretomon.ErrUnknownUser},
		{"unknown user preference", m.AddPreference("ghost", "brand", "a", "b"), paretomon.ErrUnknownUser},
		{"unknown attribute preference", m.AddPreference("u", "nope", "a", "b"), paretomon.ErrUnknownAttribute},
		{"online cycle", m.AddPreference("u", "brand", "Lenovo", "Apple"), paretomon.ErrCycle},
	} {
		if tc.err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: err = %v, not errors.Is %v", tc.name, tc.err, tc.want)
		}
	}
}

// TestOptionValidationErrors checks that every rejected option wraps
// ErrInvalidConfig.
func TestOptionValidationErrors(t *testing.T) {
	s := paretomon.NewSchema("a")
	c := paretomon.NewCommunity(s)
	if _, err := c.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  paretomon.Option
	}{
		{"WithAlgorithm(99)", paretomon.WithAlgorithm(paretomon.Algorithm(99))},
		{"WithWindow(-1)", paretomon.WithWindow(-1)},
		{"WithMeasure(99)", paretomon.WithMeasure(paretomon.Measure(99))},
		{"WithBranchCut(-1)", paretomon.WithBranchCut(-1)},
		{"WithClusterCount(0)", paretomon.WithClusterCount(0)},
		{"WithThetas(0, 0.5)", paretomon.WithThetas(0, 0.5)},
		{"WithThetas(5, 1.0)", paretomon.WithThetas(5, 1.0)},
		{"WithSubscriptionBuffer(0)", paretomon.WithSubscriptionBuffer(0)},
		{"WithStore(nil)", paretomon.WithStore(nil)},
		{"WithSnapshotEvery(-1)", paretomon.WithSnapshotEvery(-1)},
		{"WithSnapshotEvery without store", paretomon.WithSnapshotEvery(100)},
	} {
		if _, err := paretomon.NewMonitor(c, tc.opt); !errors.Is(err, paretomon.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// TestPersistenceSentinels checks the durability additions to the
// taxonomy: the sentinels are distinct (so errors.Is dispatch cannot
// conflate a checksum failure with a configuration drift or a format
// version skew), and each one is produced by its advertised failure —
// persist_test.go exercises the full recovery paths.
func TestPersistenceSentinels(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"ErrCorrupt", paretomon.ErrCorrupt},
		{"ErrVersion", paretomon.ErrVersion},
		{"ErrStateMismatch", paretomon.ErrStateMismatch},
		{"ErrStore", paretomon.ErrStore},
		{"ErrLocked", paretomon.ErrLocked},
	}
	for i, a := range sentinels {
		if a.err == nil {
			t.Fatalf("%s is nil", a.name)
		}
		for _, b := range sentinels[i+1:] {
			if errors.Is(a.err, b.err) {
				t.Errorf("%s and %s must be distinct", a.name, b.name)
			}
		}
	}
}

// TestBatchError checks AddBatch's atomic-reject contract: the error
// locates the first bad object, unwraps to its sentinel, and the monitor
// is untouched.
func TestBatchError(t *testing.T) {
	s := paretomon.NewSchema("a")
	c := paretomon.NewCommunity(s)
	if _, err := c.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	m, err := paretomon.NewMonitor(c, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.AddBatch([]paretomon.Object{
		{Name: "o1", Values: []string{"x"}},
		{Name: "o1", Values: []string{"y"}}, // duplicate within the batch
	})
	var be *paretomon.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if be.Index != 1 || be.Object != "o1" {
		t.Errorf("BatchError = %+v, want index 1 object o1", be)
	}
	if !errors.Is(err, paretomon.ErrDuplicateObject) {
		t.Errorf("err = %v, not errors.Is ErrDuplicateObject", err)
	}
	// Atomic reject: nothing from the failed batch was ingested.
	if st := m.Stats(); st.Processed != 0 {
		t.Errorf("processed = %d after failed batch, want 0", st.Processed)
	}
	if _, err := m.Add("o1", "x"); err != nil {
		t.Errorf("o1 should still be free after failed batch: %v", err)
	}
	// The in-batch duplicate check runs on scratch the monitor reuses for
	// small batches and allocates for large ones: either way a rejected
	// batch's names must not linger in it.
	for _, n := range []int{2, 2000} {
		batch := make([]paretomon.Object, n)
		for i := range batch {
			batch[i] = paretomon.Object{Name: fmt.Sprintf("b%d-%d", n, i), Values: []string{"x"}}
		}
		withDup := append(batch[:n:n], batch[0])
		if err := onlyErr(m.AddBatch(withDup)); !errors.Is(err, paretomon.ErrDuplicateObject) {
			t.Errorf("batch of %d + its first object again: err = %v, want ErrDuplicateObject", n, err)
		}
		if err := onlyErr(m.AddBatch(batch)); err != nil {
			t.Errorf("batch of %d after its rejected twin: %v", n, err)
		}
	}
}

func onlyErr[T any](_ T, err error) error { return err }

func addErr(m *paretomon.Monitor, name string, values ...string) error {
	_, err := m.Add(name, values...)
	return err
}

func subErr(m *paretomon.Monitor, user string) error {
	_, _, err := m.Subscribe(user)
	return err
}

// TestLifecycleErrorTaxonomy pins the v3 lifecycle sentinels: every
// failure dispatches with errors.Is, never by message.
func TestLifecycleErrorTaxonomy(t *testing.T) {
	s := paretomon.NewSchema("brand")
	com := paretomon.NewCommunity(s)
	u, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Prefer("brand", "Apple", "Sony"); err != nil {
		t.Fatal(err)
	}
	m, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("o1", "Apple"); err != nil {
		t.Fatal(err)
	}

	if err := m.AddUser("alice", nil); !errors.Is(err, paretomon.ErrDuplicateUser) {
		t.Errorf("duplicate AddUser: %v, want ErrDuplicateUser", err)
	}
	if err := m.AddUser("", nil); !errors.Is(err, paretomon.ErrEmptyName) {
		t.Errorf("empty AddUser: %v, want ErrEmptyName", err)
	}
	if err := m.AddUser("bob", []paretomon.Preference{{Attr: "nope", Better: "x", Worse: "y"}}); !errors.Is(err, paretomon.ErrUnknownAttribute) {
		t.Errorf("unknown attribute: %v, want ErrUnknownAttribute", err)
	}
	if err := m.AddUser("bob", []paretomon.Preference{
		{Attr: "brand", Better: "x", Worse: "y"},
		{Attr: "brand", Better: "y", Worse: "x"},
	}); !errors.Is(err, paretomon.ErrCycle) {
		t.Errorf("cyclic seed: %v, want ErrCycle", err)
	}
	if _, err := m.Frontier("bob"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("rejected user must not exist: %v, want ErrUnknownUser", err)
	}

	if err := m.RemoveUser("ghost"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("RemoveUser(ghost): %v, want ErrUnknownUser", err)
	}
	if err := m.RemoveObject("ghost"); !errors.Is(err, paretomon.ErrUnknownObject) {
		t.Errorf("RemoveObject(ghost): %v, want ErrUnknownObject", err)
	}
	if err := m.RetractPreference("ghost", "brand", "Apple", "Sony"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("RetractPreference(ghost): %v, want ErrUnknownUser", err)
	}
	if err := m.RetractPreference("alice", "nope", "Apple", "Sony"); !errors.Is(err, paretomon.ErrUnknownAttribute) {
		t.Errorf("retract unknown attribute: %v, want ErrUnknownAttribute", err)
	}
	// Never-asserted and merely-implied tuples both refuse.
	if err := m.RetractPreference("alice", "brand", "Sony", "Apple"); !errors.Is(err, paretomon.ErrUnknownPreference) {
		t.Errorf("retract unasserted: %v, want ErrUnknownPreference", err)
	}

	// The real thing still works, and errors left no trace of state.
	if err := m.RetractPreference("alice", "brand", "Apple", "Sony"); err != nil {
		t.Errorf("valid retraction: %v", err)
	}
	if err := m.RemoveObject("o1"); err != nil {
		t.Errorf("valid removal: %v", err)
	}
	// Removing the last user is allowed; the monitor serves an empty
	// community until someone joins.
	if err := m.RemoveUser("alice"); err != nil {
		t.Errorf("RemoveUser of last member: %v", err)
	}
	if err := m.AddUser("carol", nil); err != nil {
		t.Errorf("AddUser on emptied community: %v", err)
	}
}

// TestSentinelChains pins the dispatch contract end to end: every
// exported sentinel must stay reachable with errors.Is through the
// wrapped chains the fleet layer actually builds — a *RouteError
// aggregating *PartitionError entries whose causes are transport
// failures, typed ring-version 409s, lease fences, or monitor-level
// sentinels, with further fmt.Errorf %w decoration on top. If any link
// in this chain stops unwrapping, callers silently fall back to string
// matching; this test fails instead.
func TestSentinelChains(t *testing.T) {
	failures := []*partition.PartitionError{
		{Partition: 0, URL: "http://p0", Err: fmt.Errorf("dialing: %w", partition.ErrPartitionDown)},
		{Partition: 1, URL: "http://p1", Err: &partition.RingVersionError{Have: 7, Msg: "installed ring is newer"}},
		{Partition: 2, URL: "http://p2", Err: fmt.Errorf("fenced: %w", partition.ErrNotLeaseHolder)},
		{Partition: 3, URL: "http://p3", Err: fmt.Errorf("applying batch: %w", paretomon.ErrUnknownUser)},
	}
	route := &partition.RouteError{Op: "AddBatch", Failures: failures}
	wrapped := fmt.Errorf("routing objects: %w", route)

	for _, tc := range []struct {
		name string
		want error
	}{
		{"partition down through RouteError", partition.ErrPartitionDown},
		{"ring version through typed 409", partition.ErrRingVersion},
		{"lease fence through RouteError", partition.ErrNotLeaseHolder},
		{"monitor sentinel through RouteError", paretomon.ErrUnknownUser},
	} {
		if !errors.Is(wrapped, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, wrapped, tc.want)
		}
	}

	// errors.As digs the typed 409 — with the partition's installed
	// version — out of the same chain.
	var rv *partition.RingVersionError
	if !errors.As(wrapped, &rv) {
		t.Fatalf("errors.As(*RingVersionError) failed on %v", wrapped)
	}
	if rv.Have != 7 {
		t.Errorf("RingVersionError.Have = %d, want 7", rv.Have)
	}

	// A lone PartitionError (no aggregate) must unwrap the same way.
	if !errors.Is(fmt.Errorf("retry: %w", failures[1]), partition.ErrRingVersion) {
		t.Error("single PartitionError chain lost ErrRingVersion")
	}

	// Sentinels must not bleed into each other across the aggregate.
	if errors.Is(wrapped, paretomon.ErrReadOnly) {
		t.Error("chain matches an unrelated sentinel")
	}
}
