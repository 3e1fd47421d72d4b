package paretomon

import (
	"fmt"

	"repro/internal/order"
)

// AddPreference teaches a *running* monitor that user now also prefers
// better over worse on attr, repairing the affected frontiers in place —
// no rebuild, no replay. Adding preference tuples can only shrink Pareto
// frontiers, so the repair is exact; the tuple is recorded as an
// assertion, so the opposite direction is available too — see
// RetractPreference, which mends the shrunken frontiers back.
//
// Note the distinction from User.Prefer: Prefer edits the community's
// preference record used by future NewMonitor calls; AddPreference edits
// this monitor's snapshot. Call both to keep them in step.
//
// The repair routes to the shard owning the user, so under
// WithWorkers > 1 it costs what it would on an engine of that shard's
// size.
// On a durable monitor the update is validated first, WAL-logged, and
// only then applied — like Add, an acknowledged update is in the log
// before any state changes, and a rejected tuple changes nothing. The
// user's delta subscribers observe evicted objects as a FrontierDelta
// with a populated Left list.
func (m *Monitor) AddPreference(user, attr, better, worse string) error {
	if m.readOnly {
		return fmt.Errorf("%w: AddPreference for %q", ErrReadOnly, user)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, err := m.user(user)
	if err != nil {
		return err
	}
	d, ok := m.schema.attrIndex(attr)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	// Validate without mutating, so the update can be logged before it
	// applies: CanAdd mirrors exactly the strict-partial-order check the
	// engine's apply performs. (Interning may grow the shared domain
	// tables even on rejection, which is harmless — ids are opaque and
	// each monitor's value→id mapping stays internally consistent.)
	doms := m.schema.doms
	b, w := doms[d].Intern(better), doms[d].Intern(worse)
	if !m.profiles[idx].Relation(d).CanAdd(b, w) {
		return fmt.Errorf("%w: user %q, attribute %q: cannot prefer %q over %q: %w",
			ErrCycle, user, attr, better, worse, order.ErrNotStrictPartialOrder)
	}
	if err := m.appendWAL([]WALRecord{{
		Op: OpPreference, User: user, Attr: attr, Better: better, Worse: worse,
	}}); err != nil {
		return err
	}
	before := m.frontierIDs(idx)
	if err := m.applyPreferenceLocked(idx, d, user, attr, better, worse); err != nil {
		return err // unreachable: CanAdd above is Add's exact validation
	}
	m.publishDeltaLocked(idx, "", before)
	m.maybeSnapshotLocked(1)
	return nil
}

// applyPreferenceLocked grows the user's preference relation in the
// engine. Caller holds mu (or is the construction-time recovery, which
// is single-threaded). The assertion is recorded on the relation itself,
// making the tuple retractable and letting snapshots carry the full
// preference base.
func (m *Monitor) applyPreferenceLocked(idx, d int, user, attr, better, worse string) error {
	// Intern under the write lock: it may grow the shared domain tables.
	doms := m.schema.doms
	b, w := doms[d].Intern(better), doms[d].Intern(worse)
	if err := m.eng.ApplyPreference(idx, d, b, w); err != nil {
		return fmt.Errorf("%w: user %q, attribute %q: cannot prefer %q over %q: %w",
			cycleOr(err), user, attr, better, worse, err)
	}
	return nil
}
