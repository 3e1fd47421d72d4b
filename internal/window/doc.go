// Package window implements Sec. 7 of the paper: continuous monitoring of
// Pareto frontiers over alive objects under sliding-window semantics.
// FilterThenVerifySW (Alg. 5) shares one filter frontier and one buffer
// per cluster, becoming FilterThenVerifyApproxSW when given approximate
// common preference relations. Over clusters of one user each
// (NewBaselineSW) it is Alg. 4, per-user frontiers plus per-user Pareto
// frontier buffers: PB_U is PB_c, P_U is P_c, and the member tier has
// nothing to do.
//
// The Pareto frontier buffer PB (Def. 7.4) holds the alive objects not
// dominated by any succeeding object: by Theorem 7.2 an object dominated
// by a successor can never re-enter the frontier, so everything outside PB
// is gone for good, and on expiry the frontier is mended from PB alone.
//
// Three deviations from the paper's pseudocode.
//
// The first: Alg. 5's expiry loop gates per-user mending on the
// cluster-level dominance o_out ≻_U o. That gate misses objects o ∈ P_U
// whose only per-user dominator was o_out under ≻_c but not under ≻_U
// (possible since ≻_U ⊆ ≻_c); such o must enter P_c when o_out expires.
// This implementation mends P_U from PB_U under ≻_U, then mends each
// member's P_c from the updated P_U with a per-user ≻_c gate — restoring
// the invariant of Lemma 4.6 exactly. The randomized window tests verify
// equivalence against a from-scratch recompute.
//
// The second: the procedures scan P on arrival, sweep the whole of PB for
// what o_in dominates, and on expiry compare o_out with every buffered
// object and each one it dominates with P again. All of that re-derives
// what arrival order already fixed, and is replaced by one number per
// buffer entry — its shield, the id of its youngest alive dominator under
// the buffer's relation, or none:
//
//   - Every dominator of a buffered object is older than it (Def. 7.4),
//     and the youngest of them is buffered too: whatever dominates the
//     shield dominates the entry by transitivity, so it is neither younger
//     than the entry (the entry would not be buffered) nor between the two
//     (the shield would not be the youngest). A shield is always an older
//     entry of the same buffer.
//   - Objects expire in arrival order, so an entry's dominators die
//     oldest first and its shield last. The frontier is exactly the
//     entries without a shield, and P needs no scan to say whether an
//     object belongs.
//   - Arrival walks PB from the youngest entry to the oldest, one
//     comparison an entry. An entry o_in dominates is evicted — from P and
//     the member frontiers too if it had no shield. The first entry that
//     dominates o_in stops the walk and becomes o_in's shield: nothing
//     older can be dominated by o_in, because that dominator would
//     dominate it as well, from a later arrival, and it would not be
//     buffered. A twin stops the walk too, and o_in takes over its shield:
//     the two dominate, and are dominated by, the same objects. Most
//     arrivals are dominated by something recent, so most walks are
//     short.
//   - Expiry of the oldest alive object needs no comparison: if it is
//     buffered it is the first entry and in P; the entries whose shield
//     it is have just lost their last dominator and join P, in arrival
//     order; nothing else changes. Alg. 5's member tier (the first
//     deviation) runs as before, from the updated P_U.
//
// The argument uses only that the buffer's own relation is transitive,
// which holds for a user's relation, a cluster's common relation and the
// approximate ≻̂_U alike (Alg. 3 closes what it admits). What breaks its
// premises — an object leaving out of turn, a relation changing under the
// entries — re-derives the shields it invalidated: RemoveObject repairs
// around the hole (buffer.depart), the operations that change a relation
// (ApplyPreference, RetractPreference, a cluster gaining or losing a
// member) send the alive window through arrival again, as ActivateUser
// does for a newcomer (buffer.rebuild), and RestoreState derives them from
// the restored entries, a snapshot carrying none. lifecycle.go has the
// details; the shield property test checks all of it against brute force.
//
// The third: Alg. 5's member tier compares member by member — each member
// scans P_c for o_in, and on a departure each holder scans P_U for the
// objects o_out suppressed and each of those against P_U again (Lemma
// 4.6). Here it runs for all members of a cluster at once
// (core.ClusterShard.AdmitToMembers and MendMembers) over the cluster's
// member table — per attribute and value pair, the members that order it,
// so one AND over two objects' cells names every member for whom the one
// dominates the other — and each P_U entry's holders, C_o restricted to
// the cluster. On arrival each P_U entry p is probed once, for the members
// holding it that have not rejected o_in yet: p ≻_c o_in rejects, o_in ≻_c
// p evicts. On a departure the candidates of entry x are the holders of
// o_out that lack x and for whom o_out ≻_c x; every other P_U entry clears
// the members it dominates x for, and the rest promote x. Every verdict is
// the member's own: P_c is an antichain under ≻_c, for the exact and the
// approximate ≻̂_U alike, so o_in cannot be dominated by one entry of P_c
// and dominate another, and the order of the probes changes nothing. A
// probe is one counted comparison. The table follows the lifecycle calls
// one member at a time; a value interned after its build reads as
// unordered, and a domain past order.TableMaxN is read through the
// members' own relations.
//
// Twins — objects with the same tuple — cost the member tier nothing,
// since dominance reads attribute values only. All of a tuple's alive
// twins have the same dominators, so they share one shield, and each
// buffer entry carries one more bit: whether a younger twin of it is
// buffered. The arrival walk sets it where it ends on a twin, depart hands
// a removed entry's bit to its youngest older twin, and rebuild and
// RestoreState derive it as they derive shields. An arrival whose walk
// ends on a twin in P_U joins exactly the member frontiers that hold the
// twin and evicts nothing — what it dominates, the twin dominates and
// keeps out (core.ClusterShard.AdmitTwin) — on the exact engine, where
// every P_c is the frontier the attribute values determine. Under the
// approximate ≻̂_U P̂_c is what the procedure leaves, a twin can sit
// outside it unjustly, and such an arrival scans. A departure, by expiry
// or removal, that leaves a twin in P_U only leaves the frontiers that
// held it, on both engines: the twin dominates whatever o_out did, for
// every member, so nobody promotes anything.
//
// The window (Def. 7.1) is one for the whole stream, and no shard keeps
// a copy of it. Expiry goes by id: object ids are arrival indices, so the
// arrival of id n retires id n − W, which — if any buffer holds it — is
// that buffer's first entry; a removed object is in no buffer already.
// The lifecycle calls read the objects in the window that were not
// removed, their candidates, from the source the engine was built with:
// the owner's registry, the same one the append-only engines read
// (core.NewSharded's alive argument).
//
// NewSharded builds the engine as the shards of a core.Sharded — the
// engine a windowed Monitor runs on: each shard owns a disjoint slice of
// the user set (core.ClusterShard bookkeeping) plus its buffers, so
// arrival, expiry, and frontier mending stay local to the shard and
// deliveries are identical for every shard count. NewBaselineSW and
// NewFilterThenVerifySW build the same struct standalone, owning every
// user, with no source: they serve Process only, as the standalone
// append-only engines do. FilterThenVerifySW runs the calls that change
// a relation or the membership through core.ClusterShard's
// orchestration, shared with the append-only engine — the recompute of
// ≻_U, the Lemma 4.6 member mend — and supplies only the hook that
// rebuilds its tier. The shard bookkeeping's tuple-class table
// (core.TupleClasses) stays off here: every object is its own frontier
// member under its own id, as in the paper — expiry ages ids, and a class
// would have to hand its membership on at every twin's expiry. A twin
// still walks its buffer, so the Twins counter (stats.Counters, an
// arrival answered with no comparison at all) stays 0 under a window; the
// member tier's twin shortcut above is what the buffer's bits buy. Ids leave
// the window in arrival order, so the C_o table (core.TargetTracker)
// drops the expired prefix and spans at most twice the window, however
// long the stream.
package window
