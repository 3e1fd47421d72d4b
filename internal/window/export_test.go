package window

import (
	"fmt"
	"iter"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// NoShield is the shield of an entry nothing alive dominates.
const NoShield = noShield

// BufferView is one Pareto frontier buffer with everything the shield
// invariant speaks about: its relation, its entries, their shields and
// younger-twin bits in arrival order, the frontier it backs, and the
// users served from it —
// and, for a cluster's buffer, the first disagreement of its member table
// with the members' relations and C_o (core.ClusterShard.CheckMemberTable).
type BufferView struct {
	Relation *pref.Profile
	IDs      []int
	Shields  []int
	Younger  []bool
	Frontier []int
	Members  []int
	TableErr error
}

func viewOf(pb *buffer, p *pref.Profile, front *core.Frontier, members []int) BufferView {
	return BufferView{
		Relation: p,
		IDs:      pb.idSlice(),
		Shields:  append([]int(nil), pb.shield...),
		Younger:  append([]bool(nil), pb.younger...),
		Frontier: front.IDs(),
		Members:  members,
	}
}

// BufferViews returns PB_U of every maintained cluster that has members,
// which on a cluster of its own is its member's PB_c; with tables, each
// shared cluster's TableErr too, a check of every cell.
func (f *FilterThenVerifySW) BufferViews(tables bool) []BufferView {
	var out []BufferView
	for li, cl := range f.Clusters {
		if len(cl.Members) > 0 {
			v := viewOf(f.buffers[li], cl.Common, f.ClusterFronts[li], cl.Members)
			if tables && !f.Own(li) {
				v.TableErr = f.CheckMemberTable(li)
			}
			out = append(out, v)
		}
	}
	return out
}

// NewShardedViews is NewSharded that also hands out a reader of every
// shard's buffers, which the harness keeps to itself.
func NewShardedViews(users []*pref.Profile, clusters []core.Cluster, active []bool, alive iter.Seq[object.Object], w, workers int, exact bool, ctr *stats.Counters) (*core.Sharded, func() []BufferView, error) {
	var shards []*FilterThenVerifySW
	views := func() []BufferView {
		var out []BufferView
		for _, sh := range shards {
			out = append(out, sh.BufferViews(true)...)
		}
		return out
	}
	eng, err := core.ShardClusters(users, clusters, active, alive, workers, ctr, func(s core.ClusterShard) core.ShardEngine {
		e := newFilterThenVerifySW(s, w, exact)
		shards = append(shards, e)
		return e
	})
	return eng, views, err
}

// Sourced is a standalone engine with the object registry a Monitor keeps
// beside it, for the tests that drive lifecycle calls: Process interns
// each arrival, whose id must be its arrival index, and RemoveObject
// forgets the object before the engine hears of it. The engine reads the
// window from it, as a Monitor's engine reads the Monitor's registry.
type Sourced struct {
	*FilterThenVerifySW
	objs    []object.Object // every arrival, by id
	removed map[int]bool
}

// NewSourcedBaselineSW is NewBaselineSW with a registry.
func NewSourcedBaselineSW(users []*pref.Profile, w int, ctr *stats.Counters) *Sourced {
	return NewSourcedFilterThenVerifySW(users, nil, w, ctr)
}

// NewSourcedFilterThenVerifySW is NewFilterThenVerifySW with a registry.
func NewSourcedFilterThenVerifySW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *Sourced {
	return newSourced(users, clusters, w, true, ctr)
}

// NewSourcedFilterThenVerifyApproxSW is NewFilterThenVerifyApproxSW with
// a registry.
func NewSourcedFilterThenVerifyApproxSW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *Sourced {
	return newSourced(users, clusters, w, false, ctr)
}

func newSourced(users []*pref.Profile, clusters []core.Cluster, w int, exact bool, ctr *stats.Counters) *Sourced {
	s := &Sourced{removed: map[int]bool{}}
	s.FilterThenVerifySW = newFilterThenVerifySW(core.AllClusters(users, clusters, s.alive, ctr), w, exact)
	return s
}

// alive yields the window's objects that were not removed, oldest first.
func (s *Sourced) alive(yield func(object.Object) bool) {
	for _, o := range s.objs[max(len(s.objs)-s.w, 0):] {
		if !s.removed[o.ID] && !yield(o) {
			return
		}
	}
}

func (s *Sourced) Process(o object.Object) []int {
	if o.ID != len(s.objs) {
		panic(fmt.Sprintf("window: arrival %d carries id %d", len(s.objs), o.ID))
	}
	s.objs = append(s.objs, o)
	return s.FilterThenVerifySW.Process(o)
}

func (s *Sourced) RemoveObject(o object.Object) {
	s.removed[o.ID] = true
	s.FilterThenVerifySW.RemoveObject(o)
}
