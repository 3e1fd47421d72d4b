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
	// ids in unspecified order, in a fresh slice the caller owns.
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
//
// sets[i] is key base+i. The append-only engines keep base at 0; the
// windowed engines, whose keys leave in id order, drop the expired prefix
// through Expire, so the slice spans at most twice the keys still alive.
type TargetTracker struct {
	sets []*bitset.Set // key-base -> set of user ids; nil = empty
	base int           // the key of sets[0]
}

// AddTarget records that key is Pareto-optimal for user.
func (t *TargetTracker) AddTarget(key, user int) {
	i := key - t.base
	for len(t.sets) <= i {
		t.sets = append(t.sets, nil)
	}
	s := t.sets[i]
	if s == nil {
		s = &bitset.Set{}
		t.sets[i] = s
	}
	s.Add(user)
}

// RemoveTarget records that key left user's frontier.
func (t *TargetTracker) RemoveTarget(key, user int) {
	i := key - t.base
	if i < 0 || i >= len(t.sets) || t.sets[i] == nil {
		return
	}
	s := t.sets[i]
	s.Remove(user)
	if s.Empty() {
		t.sets[i] = nil
	}
}

// Holds reports whether user is in C_key. Engines write C_o at every
// user-frontier write (and RestoreState rebuilds it), so key ∈ P_user ⇔
// Holds(key, user): a loop that must find which users hold one member
// asks here — one bit test per user, inlined into the loop — and probes
// only the holders' frontiers.
func (t *TargetTracker) Holds(key, user int) bool {
	i := key - t.base
	return i >= 0 && i < len(t.sets) && t.sets[i] != nil && t.sets[i].Contains(user)
}

// DropTargets forgets a member entirely (its C_o becomes empty).
func (t *TargetTracker) DropTargets(key int) {
	if i := key - t.base; i >= 0 && i < len(t.sets) {
		t.sets[i] = nil
	}
}

// Expire forgets key and every key below it: under a window, key has
// left the window and so has everything older. The keys below must hold no
// targets already (expiry and removal drop them as they go). The slots
// stay until the dead prefix is half the slice, then the live part moves
// down in place, so the slice spans at most twice the keys alive and a
// steady window allocates nothing.
//
//paretomon:hotpath
func (t *TargetTracker) Expire(key int) {
	dead := key + 1 - t.base
	if dead <= 0 {
		return
	}
	if dead >= len(t.sets) {
		clear(t.sets)
		t.sets = t.sets[:0]
		t.base = key + 1
		return
	}
	t.sets[dead-1] = nil
	if 2*dead < len(t.sets) {
		return
	}
	n := copy(t.sets, t.sets[dead:])
	clear(t.sets[n:])
	t.sets = t.sets[:n]
	t.base += dead
}

// Span is how many key slots the tracker holds, live or not.
func (t *TargetTracker) Span() int { return len(t.sets) }

// AppendHolders appends C_key — the users for whom the member is still
// Pareto-optimal — to dst in ascending order. It is all of a twin
// arrival's answer: the engines' Process appends C_class to its result.
//
//paretomon:hotpath
func (t *TargetTracker) AppendHolders(dst []int, key int) []int {
	i := key - t.base
	if i < 0 || i >= len(t.sets) || t.sets[i] == nil {
		return dst
	}
	return t.sets[i].AppendTo(dst)
}
