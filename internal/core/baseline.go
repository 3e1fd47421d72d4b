package core

import (
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// Baseline is Alg. 1: upon each arrival it updates every user's Pareto
// frontier independently by scanning that user's current frontier. It is
// the per-user BNL-style maintenance the paper compares against; its only
// virtue is simplicity — work is repeated for every user regardless of how
// similar their preferences are.
type Baseline struct {
	users   []*pref.Profile
	members []int // user indices this instance maintains (nil = all)
	fronts  []*Frontier
	targets *targetTracker
	ctr     *stats.Counters
	scratch ResultScratch
}

// NewBaseline creates a Baseline monitor for the given users. ctr may be
// nil to skip accounting.
func NewBaseline(users []*pref.Profile, ctr *stats.Counters) *Baseline {
	return newBaselineShard(users, nil, ctr)
}

// NewBaselineFor creates a Baseline maintaining only the given member
// user indices (ascending); recovery of an evolved community uses it to
// leave removed users' slots blank.
func NewBaselineFor(users []*pref.Profile, members []int, ctr *stats.Counters) *Baseline {
	return newBaselineShard(users, members, ctr)
}

// newBaselineShard creates a Baseline restricted to the given member
// user indices; ParallelBaseline builds one per worker over disjoint
// member sets. members == nil means every user. Frontiers exist only
// for maintained users — the harness routes every per-user call to the
// owning shard, so non-member slots are never dereferenced.
func newBaselineShard(users []*pref.Profile, members []int, ctr *stats.Counters) *Baseline {
	b := &Baseline{
		users:   users,
		members: members,
		fronts:  make([]*Frontier, len(users)),
		targets: newTargetTracker(),
		ctr:     ctr,
	}
	if members == nil {
		for c := range users {
			b.fronts[c] = NewFrontier()
		}
	} else {
		for _, c := range members {
			b.fronts[c] = NewFrontier()
		}
	}
	return b
}

// each calls fn for every user this instance maintains. Removed users
// leave a nil frontier slot behind and are skipped.
func (b *Baseline) each(fn func(c int)) {
	if b.members == nil {
		for c := range b.users {
			if b.fronts[c] != nil {
				fn(c)
			}
		}
		return
	}
	for _, c := range b.members {
		fn(c)
	}
}

// Process implements Alg. 1: for every user, run updateParetoFrontier and
// collect the target users C_o.
func (b *Baseline) Process(o object.Object) []int {
	b.ctr.AddProcessed()
	co := b.scratch.Start()
	b.each(func(c int) {
		if b.updateUser(c, o) {
			co = append(co, c)
		}
	})
	b.ctr.AddDelivered(len(co))
	return b.scratch.Finish(co)
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (b *Baseline) EnableScratch() { b.scratch.Enable() }

// updateUser is Procedure updateParetoFrontier(c, o) of Alg. 1. It returns
// whether o is Pareto-optimal for c. Every pairwise comparison is counted
// as a verify comparison (Baseline has no filter tier).
func (b *Baseline) updateUser(c int, o object.Object) bool {
	f := b.fronts[c]
	var po pref.Probe
	b.users[c].Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < f.Len(); {
		op := f.At(i)
		b.ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left: // o ≻ o': discard o', keep scanning this slot
			f.Remove(op.ID)
			b.targets.remove(op.ID, c)
		case pref.Right: // o' ≻ o: o disqualified
			isPareto = false
			break scan
		case pref.Identical: // o' = o: o is Pareto-optimal, stop scanning
			break scan
		default:
			i++
		}
	}
	if isPareto {
		f.Add(o)
		b.targets.add(o.ID, c)
	}
	return isPareto
}

// SetClusterTotal is a no-op: Baseline has no cluster tier.
func (b *Baseline) SetClusterTotal(int) {}

// SetCommonFn is a no-op: Baseline has no cluster relations.
func (b *Baseline) SetCommonFn(CommonFn) {}

// UserFrontier returns P_c as object ids.
func (b *Baseline) UserFrontier(c int) []int { return b.fronts[c].IDs() }

// FrontierObjects returns P_c as objects (scan order).
func (b *Baseline) FrontierObjects(c int) []object.Object { return b.fronts[c].Objects() }

// Targets returns the current C_o of a previously processed object: the
// users for whom it is still Pareto-optimal.
func (b *Baseline) Targets(objID int) []int { return b.targets.users(objID) }
