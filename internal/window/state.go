package window

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
)

// State capture/restore for the sliding-window engines, mirroring
// core/state.go. Window state adds the ring of alive objects and the
// Pareto frontier buffers; both serialize in arrival order so a restored
// engine expires, mends, and counts comparisons exactly like an
// uninterrupted one. Every shard of a sharded window engine sees every
// object and therefore holds an identical private ring, so the ring is
// captured once and restored into each shard — per-shard state stays
// keyed by user/cluster and restores under any worker count.

var _ core.StateEngine = (*FilterThenVerifySW)(nil)

// tail returns the min(seen, w) youngest objects in arrival order.
func (r *ring) tail() []object.Object {
	n := r.seen
	if n > r.w {
		n = r.w
	}
	out := make([]object.Object, 0, n)
	for i := r.seen - n; i < r.seen; i++ {
		out = append(out, r.buf[i%r.w])
	}
	return out
}

// restore rebuilds the ring from a captured tail. The slot of arrival i
// is i mod w, so replaying the tail into its original slots makes every
// future push evict exactly the object it would have originally. A
// snapshot does not record a tombstone's id; its arrival index stands in.
// Ids ascend by at least one an arrival, so the index never exceeds the
// id (under a Monitor the two are equal): expiring through it retires no
// C_o slot that is still in the window.
func (r *ring) restore(seen int, tail []object.Object) error {
	n := seen
	if n > r.w {
		n = r.w
	}
	if len(tail) != n {
		return fmt.Errorf("window: ring state has %d objects, want %d (seen=%d, w=%d)", len(tail), n, seen, r.w)
	}
	for i, o := range tail {
		if o.ID < 0 {
			o = tombstone(seen - n + i)
		}
		r.buf[(seen-n+i)%r.w] = o
	}
	r.seen = seen
	return nil
}

// skip ages an empty ring by n arrivals, every one of them removed.
func (r *ring) skip(n int) {
	for a := max(n-r.w, 0); a < n; a++ {
		r.buf[a%r.w] = tombstone(a)
	}
	r.seen = n
}

// restore refills an empty Pareto frontier buffer from a captured one, in
// arrival order, and re-derives the shields under p: a snapshot carries
// the entries only. Like the C_o and slot-table rebuilds of a restore,
// that work is not counted.
func (b *buffer) restore(objs []object.Object, p *pref.Profile) {
	b.list = copyObjects(objs)
	b.shield = make([]int, len(objs))
	for i := range b.list {
		b.shield[i], _ = b.dominatorBelow(p, i, i)
	}
}

func copyObjects(objs []object.Object) []object.Object {
	return append([]object.Object(nil), objs...)
}

// CaptureState fills the maintained clusters' frontier slots and their
// members' (the shard's own capture), the clusters' buffer slots — a
// cluster of its own writes its buffer to its member's, as PB_c — and the
// ring.
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
	st.SetRing(f.win.seen, f.win.tail())
}

// RestoreState rebuilds the ring, then the maintained clusters' and
// members' frontiers and the target index (the shard's own restore), then
// the clusters' buffers. The engine must be freshly constructed.
func (f *FilterThenVerifySW) RestoreState(st *core.EngineState) error {
	if !st.HasRing {
		return fmt.Errorf("window: state has no ring (captured from an append-only engine?)")
	}
	if err := f.win.restore(st.RingSeen, st.Ring); err != nil {
		return err
	}
	// The C_o table starts at the ring's oldest arrival: every id before
	// it has expired (arrival indices bound ids from below, as in restore).
	f.Expire(st.RingSeen - f.win.w - 1)
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

// FastForward ages the engine, which must hold no object yet, by n
// arrivals that were all removed: its next object is arrival n. It is how
// an object sync joins a source whose older arrivals have expired.
func (f *FilterThenVerifySW) FastForward(n int) {
	f.win.skip(n)
	f.Expire(n - 1)
}
