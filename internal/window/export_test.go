package window

import (
	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/stats"
)

// NoShield is the shield of an entry nothing alive dominates.
const NoShield = noShield

// BufferView is one Pareto frontier buffer with everything the shield
// invariant speaks about: its relation, its entries and their shields in
// arrival order, the frontier it backs, and the users served from it —
// and, for a cluster's buffer, the first disagreement of its member table
// with the members' relations and C_o (core.ClusterShard.CheckMemberTable).
type BufferView struct {
	Relation *pref.Profile
	IDs      []int
	Shields  []int
	Frontier []int
	Members  []int
	TableErr error
}

func viewOf(pb *buffer, p *pref.Profile, front *core.Frontier, members []int) BufferView {
	return BufferView{
		Relation: p,
		IDs:      pb.idSlice(),
		Shields:  append([]int(nil), pb.shield...),
		Frontier: front.IDs(),
		Members:  members,
	}
}

// BufferViews returns PB_U of every maintained cluster that has members,
// which on a cluster of its own is its member's PB_c.
func (f *FilterThenVerifySW) BufferViews() []BufferView {
	var out []BufferView
	for li, cl := range f.Clusters {
		if len(cl.Members) > 0 {
			v := viewOf(f.buffers[li], cl.Common, f.ClusterFronts[li], cl.Members)
			if !f.Own(li) {
				v.TableErr = f.CheckMemberTable(li)
			}
			out = append(out, v)
		}
	}
	return out
}

// NewShardedViews is NewSharded that also hands out a reader of every
// shard's buffers, which the harness keeps to itself.
func NewShardedViews(users []*pref.Profile, clusters []core.Cluster, active []bool, w, workers int, ctr *stats.Counters) (*core.Sharded, func() []BufferView, error) {
	var shards []*FilterThenVerifySW
	views := func() []BufferView {
		var out []BufferView
		for _, sh := range shards {
			out = append(out, sh.BufferViews()...)
		}
		return out
	}
	eng, err := core.ShardClusters(users, clusters, active, workers, ctr, func(s core.ClusterShard) core.ShardEngine {
		e := newFilterThenVerifySW(s, w)
		shards = append(shards, e)
		return e
	})
	return eng, views, err
}
