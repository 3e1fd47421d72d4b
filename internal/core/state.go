package core

import (
	"fmt"

	"repro/internal/object"
)

// EngineState is the serializable state of any engine, keyed by the
// shardable units — users and clusters — never by worker shards, so a
// state captured from a standalone engine restores into a sharded one
// (and vice versa, or under a different worker count). Frontier and
// buffer slices preserve the engine's scan/arrival order: restoring in
// order reproduces not only the frontiers but the exact comparison
// counts of every future arrival.
type EngineState struct {
	// UserFronts is P_c per user, in frontier scan order.
	UserFronts [][]object.Object
	// ClusterFronts is P_U per cluster (empty for Baseline engines).
	ClusterFronts [][]object.Object
	// UserBuffers is PB_c per user, in arrival order (sliding-window
	// Baseline only; nil otherwise).
	UserBuffers [][]object.Object
	// ClusterBuffers is PB_U per cluster, in arrival order
	// (sliding-window FilterThenVerify only; nil otherwise).
	ClusterBuffers [][]object.Object
	// Windowed distinguishes a sliding-window engine's state (true) from
	// an append-only one's; Seen is its stream position, the id its next
	// arrival takes, from which a restore knows which ids have expired.
	// The window's contents are not part of the state: they are the
	// owner's registry (a snapshot's object table).
	Windowed bool
	Seen     int
}

// NewEngineState allocates a state sized for the given shardable units.
// Buffer and window fields stay zero until a sliding-window engine sets
// them during capture.
func NewEngineState(users, clusters int) *EngineState {
	return &EngineState{
		UserFronts:    make([][]object.Object, users),
		ClusterFronts: make([][]object.Object, clusters),
	}
}

// EnsureUserBuffers allocates UserBuffers on first use (sharded capture
// calls this once per shard; only the first call allocates).
func (st *EngineState) EnsureUserBuffers() {
	if st.UserBuffers == nil {
		st.UserBuffers = make([][]object.Object, len(st.UserFronts))
	}
}

// EnsureClusterBuffers allocates ClusterBuffers on first use.
func (st *EngineState) EnsureClusterBuffers() {
	if st.ClusterBuffers == nil {
		st.ClusterBuffers = make([][]object.Object, len(st.ClusterFronts))
	}
}

// StateEngine is implemented by every engine (shard and harness,
// append-only and sliding-window): CaptureState fills the slots the
// engine owns; RestoreState — valid only on a freshly constructed,
// empty engine — rebuilds them. A captured state names frontier members
// only: the exact append-only engines read the dominated tuples back into
// their class tables from their alive-object source, and the windowed
// engines need nothing beyond their buffers, whose shields they derive.
// Both leave work counters untouched; the Monitor restores its counters
// separately.
type StateEngine interface {
	CaptureState(st *EngineState)
	RestoreState(st *EngineState) error
}

var (
	_ StateEngine = (*FilterThenVerify)(nil)
	_ StateEngine = (*Sharded)(nil)
)

// checkStateSize validates that a decoded state matches the engine's
// user and cluster geometry before any slot is dereferenced: the
// frontier lists, and the buffer lists a state carries.
func checkStateSize(st *EngineState, users, clusters int) error {
	if len(st.UserFronts) != users {
		return fmt.Errorf("core: state has %d user frontiers, engine has %d users", len(st.UserFronts), users)
	}
	if len(st.ClusterFronts) != clusters {
		return fmt.Errorf("core: state has %d cluster frontiers, engine has %d clusters", len(st.ClusterFronts), clusters)
	}
	if st.UserBuffers != nil && len(st.UserBuffers) != users {
		return fmt.Errorf("core: state has %d user buffers, engine has %d users", len(st.UserBuffers), users)
	}
	if st.ClusterBuffers != nil && len(st.ClusterBuffers) != clusters {
		return fmt.Errorf("core: state has %d cluster buffers, engine has %d clusters", len(st.ClusterBuffers), clusters)
	}
	return nil
}

// CaptureState fills the slots of the clusters this instance maintains
// and their members' frontiers, every class expanded to its member
// objects. A cluster of its own has no slot: its P_U is its member's P_c.
func (s *ClusterShard) CaptureState(st *EngineState) {
	for li, cl := range s.Clusters {
		if !s.Own(li) {
			st.ClusterFronts[s.GlobalIndex(li)] = s.MemberObjects(s.ClusterFronts[li])
		}
		for _, c := range cl.Members {
			st.UserFronts[c] = s.MemberObjects(s.UserFronts[c])
		}
	}
}

// RestoreState checks the state's geometry, registers the alive objects
// in the class table (resolveAlive), then rebuilds the maintained
// clusters' filter frontiers, their members' frontiers, and the target
// index. The engine must be freshly constructed.
func (s *ClusterShard) RestoreState(st *EngineState) error {
	if err := checkStateSize(st, len(s.Users), s.total); err != nil {
		return err
	}
	s.resolveAlive()
	for li, cl := range s.Clusters {
		if !s.Own(li) { // an own cluster's P_U is restored below, as its member's P_c
			if err := s.Restore(s.ClusterFronts[li], st.ClusterFronts[s.GlobalIndex(li)], nil, 0); err != nil {
				return err
			}
		}
		for _, c := range cl.Members {
			if err := s.Restore(s.UserFronts[c], st.UserFronts[c], s, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// CaptureState fans the capture out to every shard; shards own disjoint
// slots, so sequential filling composes into the complete state.
func (s *Sharded) CaptureState(st *EngineState) {
	for _, sh := range s.shards {
		sh.CaptureState(st)
	}
}

// RestoreState hands the full state to every shard; each restores only
// the slots it owns. Counters are untouched —
// the Monitor restores its public totals separately and calls
// ResetShardCounters when recovery completes, so Stats().Shards reflects
// post-recovery work only.
func (s *Sharded) RestoreState(st *EngineState) error {
	for _, sh := range s.shards {
		if err := sh.RestoreState(st); err != nil {
			return err
		}
	}
	return nil
}
