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

	// moved is the scratch a buffer reports frontier changes into: the
	// members an arrival evicted, the entries an expiry promoted.
	moved []object.Object
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
	if oout, ok := b.win.push(oin); ok {
		if oout.ID >= 0 {
			for _, c := range b.Members {
				b.expireUser(c, oout)
			}
		}
		b.Expire(expiredID(oout))
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

// expireUser handles o_out for one user: it leaves PB_c and P_c, and the
// buffered objects it was the last alive dominator of enter P_c
// (Procedure mendParetoFrontierSW, decided by their shields).
//
//paretomon:hotpath
func (b *BaselineSW) expireUser(c int, oout object.Object) {
	var held bool
	held, b.moved = b.buffers[c].expire(oout.ID, b.moved[:0])
	if !held {
		return
	}
	f := b.Fronts[c]
	f.Remove(oout.ID)
	b.RemoveTarget(oout.ID, c)
	for _, o := range b.moved {
		f.Add(o)
		b.AddTarget(o.ID, c)
	}
}

// arriveUser handles o_in for one user: one walk of PB_c decides
// Pareto-optimality, evicts the buffered objects o_in dominates — from
// P_c too where they were members — and admits o_in to the buffer
// (Procedures updateParetoFrontierSW and refreshParetoBufferSW).
//
//paretomon:hotpath
func (b *BaselineSW) arriveUser(c int, oin object.Object) bool {
	var po pref.Probe
	b.Users[c].Prepare(oin, &po)
	var shield, cmps int
	shield, cmps, b.moved = b.buffers[c].arrive(&po, oin, b.moved[:0])
	b.Ctr.AddVerify(cmps)
	f := b.Fronts[c]
	for _, o := range b.moved {
		f.Remove(o.ID)
		b.RemoveTarget(o.ID, c)
	}
	if shield != noShield {
		return false
	}
	f.Add(oin)
	b.AddTarget(oin.ID, c)
	return true
}

// Buffer returns PB_c as object ids in arrival order.
func (b *BaselineSW) Buffer(c int) []int { return b.buffers[c].idSlice() }
