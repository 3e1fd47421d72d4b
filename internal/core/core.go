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

// TargetTracker maintains C_o for every frontier member currently
// Pareto-optimal for at least one user ("C_o ← C_o ± {c}" bookkeeping in
// Algs. 1–2 and 4–5). It is keyed like the frontiers it mirrors: by tuple
// class in the exact append-only engines, by object id in the windowed and
// approximate ones (see TupleClasses). Keys are dense, so the sets live in
// a key-indexed slice; a nil slot is an empty C_o, and a set whose last
// holder left is released with its slot. Every engine embeds a tracker
// through its shard bookkeeping (see MemberIndex in shard.go), which
// serves Targets from it.
type TargetTracker struct {
	sets []*bitset.Set // key -> set of user ids; nil = empty
}

// AddTarget records that key is Pareto-optimal for user.
func (t *TargetTracker) AddTarget(key, user int) {
	for len(t.sets) <= key {
		t.sets = append(t.sets, nil)
	}
	s := t.sets[key]
	if s == nil {
		s = &bitset.Set{}
		t.sets[key] = s
	}
	s.Add(user)
}

// RemoveTarget records that key left user's frontier.
func (t *TargetTracker) RemoveTarget(key, user int) {
	if key < 0 || key >= len(t.sets) || t.sets[key] == nil {
		return
	}
	s := t.sets[key]
	s.Remove(user)
	if s.Empty() {
		t.sets[key] = nil
	}
}

// Holds reports whether user is in C_key. Engines write C_o at every
// user-frontier write (and RestoreState rebuilds it), so key ∈ P_user ⇔
// Holds(key, user): a loop that must find which users hold one member
// asks here — one bit test per user, inlined into the loop — and probes
// only the holders' frontiers.
func (t *TargetTracker) Holds(key, user int) bool {
	return key >= 0 && key < len(t.sets) && t.sets[key] != nil && t.sets[key].Contains(user)
}

// DropTargets forgets a member entirely (its C_o becomes empty).
func (t *TargetTracker) DropTargets(key int) {
	if key >= 0 && key < len(t.sets) {
		t.sets[key] = nil
	}
}

// AppendHolders appends C_key — the users for whom the member is still
// Pareto-optimal — to dst in ascending order. It is all of a twin
// arrival's answer: the engines' Process appends C_class to its result.
//
//paretomon:hotpath
func (t *TargetTracker) AppendHolders(dst []int, key int) []int {
	if key < 0 || key >= len(t.sets) || t.sets[key] == nil {
		return dst
	}
	return t.sets[key].AppendTo(dst)
}
