package paretomon

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/storage"
)

// The v3 lifecycle API: the community and the object set are mutable on
// a live monitor. Every lifecycle call is one WALRecord run through one
// write path — check it against the current state, log it (on a durable
// monitor), apply it — and WAL recovery and the follower feed run the
// very same check and apply. An acknowledged mutation survives a crash, a
// rejected one leaves no trace, and the engines are transformed in place
// by frontier mending: removing a preference edge or an object can
// promote previously-dominated objects back into frontiers, the same
// mechanism the sliding-window engines use on expiry.
//
// Affected subscribers observe the changes as FrontierDelta events (see
// SubscribeDeltas); a removed user's subscription channels close.

// Preference is one preference tuple for AddUser: the user prefers value
// Better over value Worse on attribute Attr.
type Preference struct {
	Attr   string
	Better string
	Worse  string
}

// AddUser registers a new community member on a live monitor and builds
// their Pareto frontier over the currently alive objects. For the
// filter-then-verify engines the user joins the most preference-similar
// cluster — or founds a new one when no cluster reaches the branch cut —
// and the cluster's common relation and filter frontier resync. prefs
// seeds the user's preference relations; further tuples can follow
// through AddPreference. The name must not collide with an alive user
// (ErrDuplicateUser); a removed user's name is free for re-use.
func (m *Monitor) AddUser(name string, prefs []Preference) error {
	recPrefs := make([]storage.RecordPref, len(prefs))
	for i, pr := range prefs {
		recPrefs[i] = storage.RecordPref(pr)
	}
	return m.mutate(WALRecord{Op: OpAddUser, Name: name, Prefs: recPrefs})
}

// RemoveUser removes an alive community member: their frontier
// disappears, their subscription channels close, and — for the
// filter-then-verify engines — their cluster's common relation and
// filter frontier resync without them (a cluster losing its last member
// goes dormant). The name becomes free for a future AddUser; the removed
// user's preference history stays out of all further computation.
func (m *Monitor) RemoveUser(name string) error {
	return m.mutate(WALRecord{Op: OpRemoveUser, User: name})
}

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
// size. A tuple that would break the strict partial order is refused with
// ErrCycle and changes nothing. The user's delta subscribers observe
// evicted objects as a FrontierDelta with a populated Left list.
func (m *Monitor) AddPreference(user, attr, better, worse string) error {
	return m.mutate(WALRecord{Op: OpPreference, User: user, Attr: attr, Better: better, Worse: worse})
}

// RetractPreference undoes an asserted preference tuple: the user no
// longer prefers better over worse on attr, along with everything only
// that assertion implied (tuples still derivable from other assertions
// survive). Only explicitly asserted tuples — community Prefer calls,
// AddUser seeds, AddPreference updates — are retractable; an implied
// tuple yields ErrUnknownPreference. Retraction can only grow frontiers;
// the engines mend the affected ones in place from the alive objects,
// and subscribers of the user observe promotions as FrontierDelta
// events.
func (m *Monitor) RetractPreference(user, attr, better, worse string) error {
	return m.mutate(WALRecord{Op: OpRetractPreference, User: user, Attr: attr, Better: better, Worse: worse})
}

// RemoveObject deletes a registered object: it leaves every frontier and
// buffer it occupies, its name frees up for re-use, and the
// objects it alone was dominating are promoted back into the affected
// frontiers. Users who had the object in their frontier observe the
// change as a FrontierDelta event (the object in Left, any promotions
// in Entered). TargetsOf and HasObject no longer see it afterwards.
// An unknown, already-removed or expired name yields ErrUnknownObject:
// window expiry forgets an object as removal does.
func (m *Monitor) RemoveObject(name string) error {
	return m.mutate(WALRecord{Op: OpRemoveObject, Name: name})
}

// mutate is the write path of a live lifecycle call: check the record
// against the current state, log it, apply it. A refused record reaches
// neither the log nor the state.
func (m *Monitor) mutate(rec WALRecord) error {
	if m.readOnly {
		return fmt.Errorf("%w: %s", ErrReadOnly, callOf(rec))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mut, err := m.check(rec)
	if err != nil {
		return err
	}
	if err := m.appendWAL([]WALRecord{rec}); err != nil {
		return err
	}
	m.apply(mut)
	m.maybeSnapshotLocked(1)
	return nil
}

// callOf names the public call behind a lifecycle record, for the error
// a follower returns.
func callOf(rec WALRecord) string {
	switch rec.Op {
	case OpAddUser:
		return fmt.Sprintf("AddUser(%q)", rec.Name)
	case OpRemoveUser:
		return fmt.Sprintf("RemoveUser(%q)", rec.User)
	case OpPreference:
		return fmt.Sprintf("AddPreference for %q", rec.User)
	case OpRetractPreference:
		return fmt.Sprintf("RetractPreference for %q", rec.User)
	default:
		return fmt.Sprintf("RemoveObject(%q)", rec.Name)
	}
}

// mutation is a lifecycle record checked against the state it will
// apply to, with its names resolved to slots and ids.
type mutation struct {
	op      WALOp
	name    string        // OpAddUser: the new user's name
	profile *pref.Profile // OpAddUser: their seeded preferences
	user    int           // the user slot of OpRemoveUser and the preference ops
	d, b, w int           // the preference ops' attribute and value ids
	obj     int           // OpRemoveObject: the object id
}

// check validates a lifecycle record against the current state without
// changing it, so the record can be logged before it applies. It is the
// only validator of these records: the live calls, WAL recovery and the
// follower feed all run it. (Interning a preference's values may grow the
// shared domain tables even on rejection, which is harmless — ids are
// opaque and each monitor's value→id mapping stays internally
// consistent.) Caller holds mu.
func (m *Monitor) check(rec WALRecord) (mutation, error) {
	mut := mutation{op: rec.Op}
	var err error
	switch rec.Op {
	case OpAddUser:
		if rec.Name == "" {
			return mut, fmt.Errorf("%w: user name", ErrEmptyName)
		}
		if _, dup := m.userIdx[rec.Name]; dup {
			return mut, fmt.Errorf("%w: %q", ErrDuplicateUser, rec.Name)
		}
		mut.name = rec.Name
		mut.profile, err = m.buildUserProfile(rec.Name, rec.Prefs)
		return mut, err
	case OpRemoveUser:
		mut.user, err = m.user(rec.User)
		return mut, err
	case OpPreference, OpRetractPreference:
		if mut.user, err = m.user(rec.User); err != nil {
			return mut, err
		}
		var ok bool
		if mut.d, ok = m.schema.attrIndex(rec.Attr); !ok {
			return mut, fmt.Errorf("%w: %q", ErrUnknownAttribute, rec.Attr)
		}
		dom, rel := m.schema.doms[mut.d], m.profiles[mut.user].Relation(mut.d)
		if rec.Op == OpPreference {
			mut.b, mut.w = dom.Intern(rec.Better), dom.Intern(rec.Worse)
			if !rel.CanAdd(mut.b, mut.w) {
				return mut, fmt.Errorf("%w: user %q, attribute %q: cannot prefer %q over %q: %w",
					ErrCycle, rec.User, rec.Attr, rec.Better, rec.Worse, order.ErrNotStrictPartialOrder)
			}
			return mut, nil
		}
		var okB, okW bool
		mut.b, okB = dom.ID(rec.Better)
		mut.w, okW = dom.ID(rec.Worse)
		if !okB || !okW || !rel.HasAsserted(mut.b, mut.w) {
			return mut, fmt.Errorf("%w: user %q never asserted %q over %q on %q",
				ErrUnknownPreference, rec.User, rec.Better, rec.Worse, rec.Attr)
		}
		return mut, nil
	case OpRemoveObject:
		var ok bool
		if mut.obj, ok = m.names.find(rec.Name); !ok {
			return mut, fmt.Errorf("%w: %q", ErrUnknownObject, rec.Name)
		}
		return mut, nil
	default:
		return mut, fmt.Errorf("unknown op %d", rec.Op)
	}
}

// buildUserProfile validates and assembles a new user's preference
// profile without touching monitor state. (Interning may grow the shared
// domain tables even on rejection, which is harmless — ids are opaque.)
func (m *Monitor) buildUserProfile(name string, prefs []storage.RecordPref) (*pref.Profile, error) {
	p := pref.NewProfile(m.schema.doms)
	for _, pr := range prefs {
		d, ok := m.schema.attrIndex(pr.Attr)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, pr.Attr)
		}
		if err := p.Relation(d).AddValues(pr.Better, pr.Worse); err != nil {
			return nil, fmt.Errorf("%w: user %q, attribute %q: cannot prefer %q over %q: %w",
				cycleOr(err), name, pr.Attr, pr.Better, pr.Worse, err)
		}
	}
	return p, nil
}

// apply performs a checked mutation. Only the user whose preferences
// change, or the users holding a removed object, can see their frontier
// move: their frontiers are captured first and the change is published to
// their delta subscribers after. Recovery replay publishes nothing, so it
// captures nothing. Caller holds mu.
func (m *Monitor) apply(mut mutation) {
	var watch []int
	var before [][]int
	if !m.replaying {
		switch mut.op {
		case OpPreference, OpRetractPreference:
			watch, before = []int{mut.user}, [][]int{nil} // on the stack
		case OpRemoveObject:
			watch = m.eng.Targets(mut.obj)
			before = make([][]int, len(watch))
		}
	}
	for i, c := range watch {
		before[i] = m.eng.UserFrontier(c)
	}
	switch mut.op {
	case OpAddUser:
		m.applyAddUserLocked(mut.name, mut.profile)
	case OpRemoveUser:
		m.applyRemoveUserLocked(mut.user)
	case OpPreference:
		// The assertion is recorded on the relation itself, making the
		// tuple retractable and letting snapshots carry it.
		if err := m.eng.ApplyPreference(mut.user, mut.d, mut.b, mut.w); err != nil {
			panic(fmt.Sprintf("paretomon: applying a checked preference: %v", err)) // check ran CanAdd, Add's exact test
		}
	case OpRetractPreference:
		if err := m.eng.RetractPreference(mut.user, mut.d, mut.b, mut.w); err != nil {
			panic(fmt.Sprintf("paretomon: retracting a checked tuple: %v", err)) // check verified the assertion exists
		}
	case OpRemoveObject:
		m.applyRemoveObjectLocked(mut.obj)
	}
	for i, c := range watch {
		m.publishDeltaLocked(c, before[i])
	}
}

// applyAddUserLocked claims the next user slot for a checked profile and
// activates it in the engine.
func (m *Monitor) applyAddUserLocked(name string, p *pref.Profile) {
	c := len(m.userNames)
	m.userNames = append(m.userNames, name)
	m.rankNewUser()
	m.userAlive = append(m.userAlive, true)
	m.userIdx[name] = c
	m.profiles = append(m.profiles, p)
	m.eng.RegisterUser(c, p)
	clusterIdx := -1
	if m.cfg.Algorithm != AlgorithmBaseline {
		clusterIdx = m.assignClusterLocked(p)
		if clusterIdx == len(m.clusterMembers) {
			m.clusterMembers = append(m.clusterMembers, []int{c})
			m.clusters = append(m.clusters, []string{name})
		} else {
			m.clusterMembers[clusterIdx] = append(m.clusterMembers[clusterIdx], c)
			m.clusters[clusterIdx] = m.sortedNames(m.clusterMembers[clusterIdx])
		}
	}
	m.eng.ActivateUser(c, clusterIdx)
}

// assignClusterLocked picks the cluster a new profile joins: the most
// similar active cluster under the configured measure, or — in
// branch-cut mode, when no cluster reaches h — a freshly founded
// singleton (index == current cluster-list length). The engine
// recomputes the cluster's relation.
func (m *Monitor) assignClusterLocked(p *pref.Profile) int {
	best, bestSim := -1, 0.0
	for ui, members := range m.clusterMembers {
		if len(members) == 0 {
			continue
		}
		s := m.similarityTo(p, members)
		if best < 0 || s > bestSim {
			best, bestSim = ui, s
		}
	}
	if best < 0 || (m.cfg.ClusterCount == 0 && bestSim < m.cfg.BranchCut) {
		return len(m.clusterMembers)
	}
	return best
}

// similarityTo scores a profile against a cluster with the configured
// measure: treated as a singleton cluster against the cluster's common
// relation for the exact measures (Sec. 5), or frequency-vector
// similarity against the membership for the vector measures (Sec. 6.3).
func (m *Monitor) similarityTo(p *pref.Profile, members []int) float64 {
	ms := m.memberProfiles(members)
	meas := m.cfg.Measure.internal()
	if meas.IsVector() {
		weighted := meas == cluster.VectorWeightedJaccard
		return cluster.SimVectors(
			cluster.NewVector([]*pref.Profile{p}, weighted),
			cluster.NewVector(ms, weighted))
	}
	return cluster.Sim(meas, p, pref.Common(ms))
}

func (m *Monitor) memberProfiles(members []int) []*pref.Profile {
	ps := make([]*pref.Profile, len(members))
	for i, c := range members {
		ps[i] = m.profiles[c]
	}
	return ps
}

// applyRemoveUserLocked tombstones the user slot and removes the user
// from engine and clustering. The member lists of the monitor and the
// engine both delete in place, so the engine recomputes the relation
// over the members in the order listed here.
func (m *Monitor) applyRemoveUserLocked(idx int) {
	m.userAlive[idx] = false
	delete(m.userIdx, m.userNames[idx])
	for ui, members := range m.clusterMembers {
		if i := slices.Index(members, idx); i >= 0 {
			m.clusterMembers[ui] = slices.Delete(members, i, i+1)
			m.clusters[ui] = m.sortedNames(m.clusterMembers[ui])
			break
		}
	}
	m.eng.RemoveUser(idx)
	m.subs.closeUser(idx)
}

// applyRemoveObjectLocked tombstones the registry slot and removes the
// object from the engine.
func (m *Monitor) applyRemoveObjectLocked(id int) {
	m.kill(id)
	m.names.drop(m.nameAt(id), id)
	m.eng.RemoveObject(object.Object{ID: id, Attrs: m.attrsAt(id)})
}

// publishDeltaLocked diffs a user's frontier against a captured
// before-image and pushes the change, if any, to the user's delta
// subscribers. Both id lists are the caller's own (UserFrontier returns a
// fresh slice), so they are sorted in place and walked together.
func (m *Monitor) publishDeltaLocked(c int, beforeIDs []int) {
	after := m.eng.UserFrontier(c)
	sort.Ints(beforeIDs)
	sort.Ints(after)
	var entered, left []string
	i, j := 0, 0
	for i < len(beforeIDs) || j < len(after) {
		switch {
		case j == len(after) || i < len(beforeIDs) && beforeIDs[i] < after[j]:
			left = append(left, m.nameAt(beforeIDs[i]))
			i++
		case i == len(beforeIDs) || after[j] < beforeIDs[i]:
			entered = append(entered, m.nameAt(after[j]))
			j++
		default:
			i++
			j++
		}
	}
	if len(entered) == 0 && len(left) == 0 {
		return
	}
	sort.Strings(entered)
	sort.Strings(left)
	m.subs.publishDelta(c, FrontierDelta{Entered: entered, Left: left})
}
