package window

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
)

// State capture/restore for the sliding-window engines, mirroring
// core/state.go. Window state adds the Pareto frontier buffers, in
// arrival order, and the stream position, so a restored engine expires,
// mends, and counts comparisons exactly like an uninterrupted one. The
// window itself is the owner's registry, restored beside the engine (a
// snapshot's object table), and is no part of the engine's state;
// per-shard state stays keyed by user/cluster and restores under any
// worker count.

var _ core.StateEngine = (*FilterThenVerifySW)(nil)

// restore refills an empty Pareto frontier buffer from a captured one, in
// arrival order, and re-derives the shields and the younger-twin bits
// under p: a snapshot carries the entries only. Like the C_o and
// slot-table rebuilds of a restore, that work is not counted.
func (b *buffer) restore(objs []object.Object, p *pref.Profile) {
	b.list = copyObjects(objs)
	b.shield = make([]int, len(objs))
	b.younger = make([]bool, len(objs))
	for i, o := range b.list {
		b.shield[i], _ = b.dominatorBelow(p, i, i)
		b.younger[i] = slices.ContainsFunc(b.list[i+1:], func(x object.Object) bool { return sameTuple(x, o, p.Dims()) })
	}
}

func copyObjects(objs []object.Object) []object.Object {
	return append([]object.Object(nil), objs...)
}

// CaptureState fills the maintained clusters' frontier slots and their
// members' (the shard's own capture), the clusters' buffer slots — a
// cluster of its own writes its buffer to its member's, as PB_c — and the
// stream position, which every shard shares.
func (f *FilterThenVerifySW) CaptureState(st *core.EngineState) {
	f.ClusterShard.CaptureState(st)
	for li, cl := range f.Clusters {
		if !f.Own(li) {
			st.EnsureClusterBuffers()
			st.ClusterBuffers[f.GlobalIndex(li)] = copyObjects(f.buffers[li].objects())
			continue
		}
		st.EnsureUserBuffers()
		for _, c := range cl.Members {
			st.UserBuffers[c] = copyObjects(f.buffers[li].objects())
		}
	}
	st.Windowed, st.Seen = true, f.next
}

// RestoreState restores the stream position, then the maintained
// clusters' and members' frontiers and the target index (the shard's own
// restore), then the clusters' buffers. The engine must be freshly
// constructed.
func (f *FilterThenVerifySW) RestoreState(st *core.EngineState) error {
	if !st.Windowed {
		return fmt.Errorf("window: state is not a window engine's (captured from an append-only engine?)")
	}
	// The C_o table starts at the window's oldest arrival: every id
	// before it has expired.
	f.next = st.Seen
	f.Expire(st.Seen - f.w - 1)
	if err := f.ClusterShard.RestoreState(st); err != nil {
		return err
	}
	for li, cl := range f.Clusters {
		bufs, i := st.ClusterBuffers, f.GlobalIndex(li)
		if f.Own(li) {
			if len(cl.Members) == 0 {
				continue
			}
			bufs, i = st.UserBuffers, cl.Members[0]
		}
		if bufs == nil {
			return fmt.Errorf("window: state missing buffers (captured from a different engine?)")
		}
		f.buffers[li].restore(bufs[i], cl.Common)
	}
	return nil
}

// FastForward moves the engine, which must hold no object yet, to stream
// position n, as if n arrivals had come and gone: its next object is
// arrival n, and its C_o table starts there. It is how an object sync
// joins a source whose older arrivals have expired.
func (f *FilterThenVerifySW) FastForward(n int) {
	f.next = n
	f.Expire(n - 1)
}
