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
	UserShard
}

// NewBaseline creates a standalone Baseline monitor for the given users.
// ctr may be nil to skip accounting.
func NewBaseline(users []*pref.Profile, ctr *stats.Counters) *Baseline {
	return newBaseline(AllUsers(users, ctr))
}

// NewBaselinePerObject is NewBaseline with every object its own frontier
// member: Alg. 1 as published, which internal/experiments runs for the
// paper's figures. Frontiers and deliveries are NewBaseline's; only the
// comparison count differs on streams that repeat tuples.
func NewBaselinePerObject(users []*pref.Profile, ctr *stats.Counters) *Baseline {
	return &Baseline{AllUsers(users, ctr)}
}

// newBaseline wraps one shard's bookkeeping into an engine. Alg. 1 is
// exact, so its frontier members are tuple classes (see TupleClasses).
func newBaseline(s UserShard) *Baseline {
	s.enable()
	return &Baseline{s}
}

// Process implements Alg. 1: for every user, run updateParetoFrontier and
// collect the target users C_o. An arrival whose tuple is already alive is
// Alg. 1's Identical case for every user at once: it joins exactly the
// frontiers its class is in, so C_o is C_class and nothing is scanned.
func (b *Baseline) Process(o object.Object) []int {
	b.Ctr.AddProcessed()
	co := b.Scratch.Start()
	rep, twin := b.Resolve(o)
	if twin {
		b.Ctr.AddTwin()
		co = b.AppendHolders(co, rep.ID)
	} else {
		for _, c := range b.Members {
			if b.updateUser(c, rep) {
				co = append(co, c)
			}
		}
	}
	b.Ctr.AddDelivered(len(co))
	return b.Scratch.Finish(co)
}

// updateUser is Procedure updateParetoFrontier(c, o) of Alg. 1. It returns
// whether o is Pareto-optimal for c. Every pairwise comparison is counted
// as a verify comparison (Baseline has no filter tier). Under tuple
// classes o is the representative of a class no frontier member shares a
// tuple with, and the procedure's Identical case is Process's twin path;
// only a per-object engine still meets it here.
//
//paretomon:hotpath
func (b *Baseline) updateUser(c int, o object.Object) bool {
	f := b.Fronts[c]
	var po pref.Probe
	b.Users[c].Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < f.Len(); {
		op := f.At(i)
		b.Ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left: // o ≻ o': discard o', keep scanning this slot
			f.Remove(op.ID)
			b.RemoveTarget(op.ID, c)
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
		b.AddTarget(o.ID, c)
	}
	return isPareto
}
