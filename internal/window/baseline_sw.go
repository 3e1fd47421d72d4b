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
	core.UserShard
	buffers []*buffer // PB_c per user; nil outside Members
	win     *ring
}

// NewBaselineSW creates the standalone monitor with window size w.
func NewBaselineSW(users []*pref.Profile, w int, ctr *stats.Counters) *BaselineSW {
	return newBaselineSW(core.AllUsers(users, ctr), w)
}

// newBaselineSW wraps one shard's bookkeeping into an engine with its own
// window ring (every shard sees every object, so expiry stays local) and
// a Pareto frontier buffer per member.
func newBaselineSW(s core.UserShard, w int) *BaselineSW {
	b := &BaselineSW{UserShard: s, buffers: make([]*buffer, len(s.Users)), win: newRing(w)}
	for _, c := range s.Members {
		b.buffers[c] = newBuffer()
	}
	return b
}

// Process ingests o_in, expiring the object that leaves the window, and
// returns C_oin.
func (b *BaselineSW) Process(oin object.Object) []int {
	b.Ctr.AddProcessed()
	if oout, ok := b.win.push(oin); ok && oout.ID >= 0 {
		for _, c := range b.Members {
			b.expireUser(c, oout)
		}
		b.DropTargets(oout.ID)
	}
	co := b.Scratch.Start()
	for _, c := range b.Members {
		if b.arriveUser(c, oin) {
			co = append(co, c)
		}
	}
	b.Ctr.AddDelivered(len(co))
	return b.Scratch.Finish(co)
}

// expireUser handles o_out for one user: if o_out occupied P_c, objects it
// exclusively dominated are promoted from PB_c (Procedure
// mendParetoFrontierSW); o_out then leaves both structures.
func (b *BaselineSW) expireUser(c int, oout object.Object) {
	pb := b.buffers[c]
	if b.Holds(oout.ID, c) {
		b.Fronts[c].Remove(oout.ID)
		b.RemoveTarget(oout.ID, c)
		// Promote buffered objects whose only shield was o_out. Arrival
		// order matters: an earlier candidate admitted to P_c must be able
		// to reject a later candidate it dominates.
		var po pref.Probe
		b.Users[c].Prepare(oout, &po)
		for _, o := range pb.objects() {
			if o.ID == oout.ID {
				continue
			}
			b.Ctr.AddVerify(1)
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
	f := b.Fronts[c]
	if f.Contains(o.ID) {
		return
	}
	var po pref.Probe
	b.Users[c].Prepare(o, &po)
	for i := 0; i < f.Len(); i++ {
		b.Ctr.AddVerify(1)
		if po.DominatedBy(f.At(i)) {
			return
		}
	}
	f.Add(o)
	b.AddTarget(o.ID, c)
}

// arriveUser handles o_in for one user: a single frontier scan decides
// Pareto-optimality and evicts dominated members (Procedure
// updateParetoFrontierSW), then the buffer is refreshed (Procedure
// refreshParetoBufferSW): o_in enters PB_c and evicts the buffered objects
// it dominates — they arrived earlier, so by Theorem 7.2 they are out for
// good.
func (b *BaselineSW) arriveUser(c int, oin object.Object) bool {
	f := b.Fronts[c]
	var po pref.Probe
	b.Users[c].Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < f.Len(); {
		op := f.At(i)
		b.Ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			f.Remove(op.ID)
			b.RemoveTarget(op.ID, c)
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
		b.AddTarget(oin.ID, c)
	}
	pb := b.buffers[c]
	b.Ctr.AddVerify(pb.evictDominated(&po))
	pb.add(oin)
	return isPareto
}

// Buffer returns PB_c as object ids in arrival order.
func (b *BaselineSW) Buffer(c int) []int { return b.buffers[c].idSlice() }
