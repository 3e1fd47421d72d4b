package paretomon

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/pref"
	"repro/internal/storage"
)

// The v3 lifecycle API: the community and the object set are mutable on
// a live monitor. Each operation validates first, WAL-logs (on a durable
// monitor) before applying — an acknowledged mutation survives a crash,
// a rejected one leaves no trace — and then transforms the engines in
// place by frontier mending: removing a preference edge or an object can
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
	if m.readOnly {
		return fmt.Errorf("%w: AddUser(%q)", ErrReadOnly, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		return fmt.Errorf("%w: user name", ErrEmptyName)
	}
	if _, dup := m.userIdx[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, name)
	}
	p, err := m.buildUserProfile(name, prefs)
	if err != nil {
		return err
	}
	recPrefs := make([]storage.RecordPref, len(prefs))
	for i, pr := range prefs {
		recPrefs[i] = storage.RecordPref{Attr: pr.Attr, Better: pr.Better, Worse: pr.Worse}
	}
	if err := m.appendWAL([]WALRecord{{Op: OpAddUser, Name: name, Prefs: recPrefs}}); err != nil {
		return err
	}
	m.applyAddUserLocked(name, p)
	m.maybeSnapshotLocked(1)
	return nil
}

// buildUserProfile validates and assembles a new user's preference
// profile without touching monitor state, so the operation can be
// WAL-logged before anything changes. (Interning may grow the shared
// domain tables even on rejection, which is harmless — ids are opaque.)
func (m *Monitor) buildUserProfile(name string, prefs []Preference) (*pref.Profile, error) {
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

// applyAddUserLocked claims the next user slot for a validated profile
// and activates it in the engine. Shared by AddUser and WAL replay.
func (m *Monitor) applyAddUserLocked(name string, p *pref.Profile) {
	c := len(m.userNames)
	m.userNames = append(m.userNames, name)
	m.userAlive = append(m.userAlive, true)
	m.userIdx[name] = c
	m.profiles = append(m.profiles, p)
	m.eng.RegisterUser(c, p)
	clusterIdx, common := -1, (*pref.Profile)(nil)
	if m.cfg.Algorithm != AlgorithmBaseline {
		clusterIdx, common = m.assignClusterLocked(p)
		if clusterIdx == len(m.clusterMembers) {
			m.clusterMembers = append(m.clusterMembers, []int{c})
			m.clusters = append(m.clusters, []string{name})
		} else {
			m.clusterMembers[clusterIdx] = append(m.clusterMembers[clusterIdx], c)
			m.clusters[clusterIdx] = m.sortedNames(m.clusterMembers[clusterIdx])
		}
	}
	m.eng.ActivateUser(c, clusterIdx, common, m.aliveObjects())
}

// assignClusterLocked picks the cluster a new profile joins: the most
// similar active cluster under the configured measure, or — in
// branch-cut mode, when no cluster reaches h — a freshly founded
// singleton (index == current cluster-list length). It returns the
// cluster's recomputed common relation including the newcomer.
func (m *Monitor) assignClusterLocked(p *pref.Profile) (int, *pref.Profile) {
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
		return len(m.clusterMembers), m.commonFn([]*pref.Profile{p})
	}
	ps := m.memberProfiles(m.clusterMembers[best])
	return best, m.commonFn(append(ps, p))
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

// clusterOfLocked finds the cluster holding user idx.
func (m *Monitor) clusterOfLocked(idx int) int {
	for ui, members := range m.clusterMembers {
		for _, c := range members {
			if c == idx {
				return ui
			}
		}
	}
	panic(fmt.Sprintf("paretomon: user %d not in any cluster", idx))
}

// RemoveUser removes an alive community member: their frontier
// disappears, their subscription channels close, and — for the
// filter-then-verify engines — their cluster's common relation and
// filter frontier resync without them (a cluster losing its last member
// goes dormant). The name becomes free for a future AddUser; the removed
// user's preference history stays out of all further computation.
func (m *Monitor) RemoveUser(name string) error {
	if m.readOnly {
		return fmt.Errorf("%w: RemoveUser(%q)", ErrReadOnly, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, err := m.user(name)
	if err != nil {
		return err
	}
	if err := m.appendWAL([]WALRecord{{Op: OpRemoveUser, User: name}}); err != nil {
		return err
	}
	m.applyRemoveUserLocked(idx)
	m.maybeSnapshotLocked(1)
	return nil
}

// applyRemoveUserLocked tombstones the user slot and removes the user
// from engine and clustering. Shared by RemoveUser and WAL replay.
func (m *Monitor) applyRemoveUserLocked(idx int) {
	m.userAlive[idx] = false
	delete(m.userIdx, m.userNames[idx])
	var common *pref.Profile
	if m.cfg.Algorithm != AlgorithmBaseline {
		ui := m.clusterOfLocked(idx)
		members := m.clusterMembers[ui]
		for i, c := range members {
			if c == idx {
				members = append(members[:i], members[i+1:]...)
				break
			}
		}
		m.clusterMembers[ui] = members
		m.clusters[ui] = m.sortedNames(members)
		if len(members) > 0 {
			common = m.commonFn(m.memberProfiles(members))
		}
	}
	m.eng.RemoveUser(idx, common, m.aliveObjects())
	m.subs.closeUser(idx)
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
	if m.readOnly {
		return fmt.Errorf("%w: RetractPreference for %q", ErrReadOnly, user)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, d, b, w, err := m.checkRetractLocked(user, attr, better, worse)
	if err != nil {
		return err
	}
	if err := m.appendWAL([]WALRecord{{
		Op: OpRetractPreference, User: user, Attr: attr, Better: better, Worse: worse,
	}}); err != nil {
		return err
	}
	before := m.frontierIDs(idx)
	m.applyRetractLocked(idx, d, b, w)
	m.publishDeltaLocked(idx, "", before)
	m.maybeSnapshotLocked(1)
	return nil
}

// checkRetractLocked validates a retraction without mutating anything,
// so the operation can be WAL-logged before it applies.
func (m *Monitor) checkRetractLocked(user, attr, better, worse string) (idx, d, b, w int, err error) {
	idx, err = m.user(user)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d, ok := m.schema.attrIndex(attr)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	dom := m.schema.doms[d]
	b, ok1 := dom.ID(better)
	w, ok2 := dom.ID(worse)
	if !ok1 || !ok2 || !m.profiles[idx].Relation(d).HasAsserted(b, w) {
		return 0, 0, 0, 0, fmt.Errorf("%w: user %q never asserted %q over %q on %q",
			ErrUnknownPreference, user, better, worse, attr)
	}
	return idx, d, b, w, nil
}

// applyRetractLocked shrinks the user's shared relation and mends the
// affected frontiers. Shared by RetractPreference and WAL replay.
func (m *Monitor) applyRetractLocked(idx, d, b, w int) {
	if err := m.profiles[idx].Relation(d).Remove(b, w); err != nil {
		// checkRetractLocked verified the assertion exists.
		panic(fmt.Sprintf("paretomon: retracting validated tuple: %v", err))
	}
	var common *pref.Profile
	if m.cfg.Algorithm != AlgorithmBaseline {
		ui := m.clusterOfLocked(idx)
		common = m.commonFn(m.memberProfiles(m.clusterMembers[ui]))
	}
	m.eng.RetractPreference(idx, common, m.aliveObjects())
}

// RemoveObject deletes a registered object: it leaves every frontier,
// ring and buffer it occupies, its name frees up for re-use, and the
// objects it alone was dominating are promoted back into the affected
// frontiers. Users who had the object in their frontier observe the
// change as a FrontierDelta event (the object in Left, any promotions
// in Entered). TargetsOf and HasObject no longer see it afterwards.
// Removing an object that already expired from the window succeeds as a
// registry-only change (expiry evicted it from every live structure but
// does not free its name — removal does); an unknown or already-removed
// name yields ErrUnknownObject.
func (m *Monitor) RemoveObject(name string) error {
	if m.readOnly {
		return fmt.Errorf("%w: RemoveObject(%q)", ErrReadOnly, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.names[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, name)
	}
	if err := m.appendWAL([]WALRecord{{Op: OpRemoveObject, Name: name}}); err != nil {
		return err
	}
	// Only users holding the object in their frontier can observe a
	// change: capture their frontiers for the delta events.
	affected := m.eng.Targets(id)
	before := make([][]int, len(affected))
	for i, c := range affected {
		before[i] = m.frontierIDs(c)
	}
	m.applyRemoveObjectLocked(id)
	for i, c := range affected {
		m.publishDeltaLocked(c, "", before[i])
	}
	m.maybeSnapshotLocked(1)
	return nil
}

// applyRemoveObjectLocked tombstones the registry slot and removes the
// object from the engine. Shared by RemoveObject and WAL replay.
func (m *Monitor) applyRemoveObjectLocked(id int) {
	e := &m.objects[id]
	e.alive = false
	delete(m.names, e.name)
	m.eng.RemoveObject(e.obj, m.aliveObjects())
}

// frontierIDs snapshots a user's frontier as object ids.
func (m *Monitor) frontierIDs(c int) []int {
	return append([]int(nil), m.eng.UserFrontier(c)...)
}

// publishDeltaLocked diffs a user's frontier against a captured
// before-image and pushes the change to the user's delta subscribers.
// Suppressed during recovery replay, like all publication.
func (m *Monitor) publishDeltaLocked(c int, object string, beforeIDs []int) {
	if m.replaying {
		return
	}
	after := m.eng.UserFrontier(c)
	was := make(map[int]bool, len(beforeIDs))
	for _, id := range beforeIDs {
		was[id] = true
	}
	is := make(map[int]bool, len(after))
	var entered, left []string
	for _, id := range after {
		is[id] = true
		if !was[id] {
			entered = append(entered, m.objects[id].name)
		}
	}
	for _, id := range beforeIDs {
		if !is[id] {
			left = append(left, m.objects[id].name)
		}
	}
	if len(entered) == 0 && len(left) == 0 && object == "" {
		return
	}
	sort.Strings(entered)
	sort.Strings(left)
	m.subs.publishDelta(c, FrontierDelta{Object: object, Entered: entered, Left: left})
}
