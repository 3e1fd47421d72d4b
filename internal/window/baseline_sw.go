package window

import (
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// BaselineSW is Alg. 4: per-user frontier maintenance over a sliding
// window of the W most recent objects. Each user keeps an exclusive
// Pareto frontier P_c and an exclusive Pareto frontier buffer PB_c.
type BaselineSW struct {
	users   []*pref.Profile
	members []int // user indices this instance maintains (nil = all)
	fronts  []*core.Frontier
	buffers []*buffer
	win     *ring
	targets *targetTracker
	ctr     *stats.Counters
	scratch core.ResultScratch
}

// NewBaselineSW creates the monitor with window size w.
func NewBaselineSW(users []*pref.Profile, w int, ctr *stats.Counters) *BaselineSW {
	return newBaselineSWShard(users, nil, w, ctr)
}

// NewBaselineSWFor creates a BaselineSW maintaining only the given
// member user indices (ascending); recovery of an evolved community uses
// it to leave removed users' slots blank.
func NewBaselineSWFor(users []*pref.Profile, members []int, w int, ctr *stats.Counters) *BaselineSW {
	return newBaselineSWShard(users, members, w, ctr)
}

// newBaselineSWShard creates a BaselineSW restricted to the given member
// user indices; ParallelBaselineSW builds one per worker over disjoint
// member sets, each with its own window ring so expiry stays local.
// members == nil means every user. Frontiers and buffers exist only for
// maintained users — the harness routes every per-user call to the
// owning shard, so non-member slots are never dereferenced.
func newBaselineSWShard(users []*pref.Profile, members []int, w int, ctr *stats.Counters) *BaselineSW {
	b := &BaselineSW{
		users:   users,
		members: members,
		fronts:  make([]*core.Frontier, len(users)),
		buffers: make([]*buffer, len(users)),
		win:     newRing(w),
		targets: newTargetTracker(),
		ctr:     ctr,
	}
	init := func(c int) {
		b.fronts[c] = core.NewFrontier()
		b.buffers[c] = newBuffer()
	}
	if members == nil {
		for c := range users {
			init(c)
		}
	} else {
		for _, c := range members {
			init(c)
		}
	}
	return b
}

// each calls fn for every user this instance maintains. Removed users
// leave a nil frontier slot behind and are skipped.
func (b *BaselineSW) each(fn func(c int)) {
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

// Process ingests o_in, expiring the object that leaves the window, and
// returns C_oin.
func (b *BaselineSW) Process(oin object.Object) []int {
	b.ctr.AddProcessed()
	if oout, ok := b.win.push(oin); ok && oout.ID >= 0 {
		b.each(func(c int) { b.expireUser(c, oout) })
		b.targets.drop(oout.ID)
	}
	co := b.scratch.Start()
	b.each(func(c int) {
		if b.arriveUser(c, oin) {
			co = append(co, c)
		}
	})
	b.ctr.AddDelivered(len(co))
	return b.scratch.Finish(co)
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (b *BaselineSW) EnableScratch() { b.scratch.Enable() }

// expireUser handles o_out for one user: if o_out occupied P_c, objects it
// exclusively dominated are promoted from PB_c (Procedure
// mendParetoFrontierSW); o_out then leaves both structures.
func (b *BaselineSW) expireUser(c int, oout object.Object) {
	f := b.fronts[c]
	pb := b.buffers[c]
	if f.Remove(oout.ID) {
		b.targets.remove(oout.ID, c)
		// Promote buffered objects whose only shield was o_out. Arrival
		// order matters: an earlier candidate admitted to P_c must be able
		// to reject a later candidate it dominates.
		var po pref.Probe
		b.users[c].Prepare(oout, &po)
		for _, o := range pb.objects() {
			if o.ID == oout.ID {
				continue
			}
			b.ctr.AddVerify(1)
			if po.Dominates(o) {
				b.mendUser(c, o)
			}
		}
	}
	pb.remove(oout.ID)
}

// mendUser is Procedure mendParetoFrontierSW(c, o): o joins P_c unless a
// current member dominates it.
func (b *BaselineSW) mendUser(c int, o object.Object) {
	f := b.fronts[c]
	if f.Contains(o.ID) {
		return
	}
	var po pref.Probe
	b.users[c].Prepare(o, &po)
	for i := 0; i < f.Len(); i++ {
		b.ctr.AddVerify(1)
		if po.DominatedBy(f.At(i)) {
			return
		}
	}
	f.Add(o)
	b.targets.add(o.ID, c)
}

// arriveUser handles o_in for one user: a single frontier scan decides
// Pareto-optimality and evicts dominated members (Procedure
// updateParetoFrontierSW), then the buffer is refreshed (Procedure
// refreshParetoBufferSW): o_in enters PB_c and evicts the buffered objects
// it dominates — they arrived earlier, so by Theorem 7.2 they are out for
// good.
func (b *BaselineSW) arriveUser(c int, oin object.Object) bool {
	f := b.fronts[c]
	var po pref.Probe
	b.users[c].Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < f.Len(); {
		op := f.At(i)
		b.ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			f.Remove(op.ID)
			b.targets.remove(op.ID, c)
		case pref.Right:
			isPareto = false
			break scan
		case pref.Identical:
			break scan
		default:
			i++
		}
	}
	if isPareto {
		f.Add(oin)
		b.targets.add(oin.ID, c)
	}
	pb := b.buffers[c]
	b.ctr.AddVerify(pb.evictDominated(&po))
	pb.add(oin)
	return isPareto
}

// UserFrontier returns P_c as object ids.
func (b *BaselineSW) UserFrontier(c int) []int { return b.fronts[c].IDs() }

// Buffer returns PB_c as object ids in arrival order.
func (b *BaselineSW) Buffer(c int) []int { return b.buffers[c].idSlice() }

// Targets returns the current C_o of an alive object.
func (b *BaselineSW) Targets(objID int) []int { return b.targets.users(objID) }
