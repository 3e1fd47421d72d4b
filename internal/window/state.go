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

var (
	_ core.StateEngine = (*BaselineSW)(nil)
	_ core.StateEngine = (*FilterThenVerifySW)(nil)
)

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

// restoreRing rebuilds the ring from st and starts the C_o table at the
// ring's oldest arrival: every id before it has expired (arrival indices
// bound ids from below, as in restore).
func restoreRing(r *ring, t *core.TargetTracker, st *core.EngineState) error {
	if err := r.restore(st.RingSeen, st.Ring); err != nil {
		return err
	}
	t.Expire(st.RingSeen - r.w - 1)
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

// CaptureState fills the maintained users' frontier slots (the shard's
// own capture) and buffer slots, plus the (shard-identical) window ring.
func (b *BaselineSW) CaptureState(st *core.EngineState) {
	b.UserShard.CaptureState(st)
	st.EnsureUserBuffers()
	for _, c := range b.Members {
		st.UserBuffers[c] = copyObjects(b.buffers[c].objects())
	}
	st.SetRing(b.win.seen, b.win.tail())
}

// RestoreState rebuilds the ring, then the maintained users' frontiers
// and the target index (the shard's own restore), then their buffers.
// The engine must be freshly constructed.
func (b *BaselineSW) RestoreState(st *core.EngineState) error {
	if !st.HasRing || st.UserBuffers == nil {
		return fmt.Errorf("window: state missing ring or user buffers (captured from an append-only engine?)")
	}
	if err := restoreRing(b.win, &b.TargetTracker, st); err != nil {
		return err
	}
	if err := b.UserShard.RestoreState(st); err != nil {
		return err
	}
	for _, c := range b.Members {
		b.buffers[c].restore(st.UserBuffers[c], b.Users[c])
	}
	return nil
}

// CaptureState fills the maintained clusters' frontier slots and their
// members' (the shard's own capture), the clusters' buffer slots, and the
// ring.
func (f *FilterThenVerifySW) CaptureState(st *core.EngineState) {
	f.ClusterShard.CaptureState(st)
	st.EnsureClusterBuffers()
	for li := range f.Clusters {
		st.ClusterBuffers[f.GlobalIndex(li)] = copyObjects(f.buffers[li].objects())
	}
	st.SetRing(f.win.seen, f.win.tail())
}

// RestoreState rebuilds the ring, then the maintained clusters' and
// members' frontiers and the target index (the shard's own restore), then
// the clusters' buffers. The engine must be freshly constructed.
func (f *FilterThenVerifySW) RestoreState(st *core.EngineState) error {
	if !st.HasRing || st.ClusterBuffers == nil {
		return fmt.Errorf("window: state missing ring or cluster buffers (captured from a different engine?)")
	}
	if err := restoreRing(f.win, &f.TargetTracker, st); err != nil {
		return err
	}
	if err := f.ClusterShard.RestoreState(st); err != nil {
		return err
	}
	for li, cl := range f.Clusters {
		f.buffers[li].restore(st.ClusterBuffers[f.GlobalIndex(li)], cl.Common)
	}
	return nil
}

// FastForward ages the engine, which must hold no object yet, by n
// arrivals that were all removed: its next object is arrival n. It is how
// an object sync joins a source whose older arrivals have expired.
func (b *BaselineSW) FastForward(n int) {
	b.win.skip(n)
	b.Expire(n - 1)
}

// FastForward is BaselineSW.FastForward.
func (f *FilterThenVerifySW) FastForward(n int) {
	f.win.skip(n)
	f.Expire(n - 1)
}
