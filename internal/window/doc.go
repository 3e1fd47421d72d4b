// Package window implements Sec. 7 of the paper: continuous monitoring of
// Pareto frontiers over alive objects under sliding-window semantics.
// BaselineSW (Alg. 4) maintains per-user frontiers plus per-user Pareto
// frontier buffers; FilterThenVerifySW (Alg. 5) shares one filter frontier
// and one buffer per cluster, becoming FilterThenVerifyApproxSW when given
// approximate common preference relations.
//
// The Pareto frontier buffer PB (Def. 7.4) holds the alive objects not
// dominated by any succeeding object: by Theorem 7.2 an object dominated
// by a successor can never re-enter the frontier, so everything outside PB
// is gone for good, and on expiry the frontier is mended from PB alone.
//
// One deviation from the paper's pseudocode: Alg. 5's expiry loop gates
// per-user mending on the cluster-level dominance o_out ≻_U o. That gate
// misses objects o ∈ P_U whose only per-user dominator was o_out under
// ≻_c but not under ≻_U (possible since ≻_U ⊆ ≻_c); such o must enter
// P_c when o_out expires. This implementation mends P_U from PB_U with
// the ≻_U gate, then mends each member's P_c from the updated P_U with a
// per-user ≻_c gate — restoring the invariant of Lemma 4.6 exactly. The
// randomized window tests verify equivalence against a from-scratch
// recompute.
//
// NewSharded builds these engines as the shards of a core.Sharded — the
// engine a windowed Monitor runs on: each shard owns a disjoint slice of
// the user set (core.UserShard / core.ClusterShard bookkeeping) plus its
// own window ring and buffers, so arrival, expiry, and frontier mending
// stay local to the shard and deliveries are identical for every shard
// count. NewBaselineSW and NewFilterThenVerifySW build the same structs
// standalone, owning every user. The shard bookkeeping's tuple-class table
// (core.TupleClasses) stays off here: every object is its own frontier
// member under its own id, as in the paper — the ring ages ids, and a
// class would have to be refreshed in it.
package window
