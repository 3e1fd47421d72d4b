package core

import (
	"repro/internal/bitset"
	"repro/internal/object"
)

// Monitor is the common interface of the append-only engines: feed each
// arriving object, get back its target users C_o (indices into the user
// list the engine was built with).
type Monitor interface {
	// Process ingests the next object and returns the ids of users whose
	// Pareto frontier the object joins, in ascending order.
	Process(o object.Object) []int
	// UserFrontier returns the current Pareto frontier of user c as object
	// ids in unspecified order.
	UserFrontier(c int) []int
}

// TargetTracker maintains C_o for every object currently Pareto-optimal
// for at least one user ("C_o ← C_o ± {c}" bookkeeping in Algs. 1–2 and
// 4–5). Object ids are dense, so the sets live in an id-indexed slice; a
// nil slot is an empty C_o. Every engine embeds one through its shard
// bookkeeping (see shard.go) and serves Targets from it.
type TargetTracker struct {
	sets []*bitset.Set // object id -> set of user ids; nil = empty
}

// AddTarget records that objID is Pareto-optimal for user.
func (t *TargetTracker) AddTarget(objID, user int) {
	for len(t.sets) <= objID {
		t.sets = append(t.sets, nil)
	}
	s := t.sets[objID]
	if s == nil {
		s = &bitset.Set{}
		t.sets[objID] = s
	}
	s.Add(user)
}

// RemoveTarget records that objID left user's frontier.
func (t *TargetTracker) RemoveTarget(objID, user int) {
	if objID >= 0 && objID < len(t.sets) && t.sets[objID] != nil {
		t.sets[objID].Remove(user)
	}
}

// Holds reports whether user is in C_objID. Engines write C_o at every
// user-frontier write (and RestoreState rebuilds it), so objID ∈ P_user ⇔
// Holds(objID, user): a loop that must find which users hold one object
// asks here — one bit test per user, inlined into the loop — and probes
// only the holders' frontiers.
func (t *TargetTracker) Holds(objID, user int) bool {
	return objID >= 0 && objID < len(t.sets) && t.sets[objID] != nil && t.sets[objID].Contains(user)
}

// DropTargets forgets an object entirely (its C_o becomes empty).
func (t *TargetTracker) DropTargets(objID int) {
	if objID >= 0 && objID < len(t.sets) {
		t.sets[objID] = nil
	}
}

// Targets returns the current C_o of a previously processed object — the
// users for whom it is still Pareto-optimal — sorted, nil if empty.
func (t *TargetTracker) Targets(objID int) []int {
	if objID < 0 || objID >= len(t.sets) {
		return nil
	}
	if s := t.sets[objID]; s != nil && !s.Empty() {
		return s.Slice()
	}
	return nil
}
