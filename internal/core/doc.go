// Package core implements the paper's primary contribution: continuous
// monitoring of Pareto frontiers for many users over an append-only object
// stream (Sultana & Li, EDBT 2018, Secs. 4–6).
//
//   - FilterThenVerify is Alg. 2: users are clustered by preference
//     similarity and a shared frontier P_U under each cluster's common
//     preference relation (Def. 4.1) filters objects before any per-user
//     work; Theorem 4.5 guarantees the filter discards only true
//     negatives. Given approximate common relations (Sec. 6.2) the same
//     engine is FilterThenVerifyApprox — "the algorithm itself remains
//     the same".
//   - Baseline, Alg. 1's per-user BNL-style frontier maintenance, is the
//     same engine with every user a cluster of its own (NewBaseline): for
//     a cluster of one ≻_U = ≻_c, so P_U = P_c, and only the per-user
//     tier runs, every comparison counted as verify work.
//
// Sharded is the engine every Monitor runs on: NewSharded deals whole
// clusters — under Alg. 1 one-user clusters, so users — over
// user-disjoint shards, each a FilterThenVerify with explicit membership
// (ClusterShard, which the windowed engine embeds too). One shard is the
// paper's single-threaded algorithm; more shards are an engineering
// extension beyond it, with results identical by construction — the
// equivalence tests pin that. NewBaseline and NewFilterThenVerify build
// the same struct standalone, owning every user: the reference the paper
// figures and tests use.
//
// The lifecycle calls (lifecycle.go) carry only what changed — a user
// slot, a cluster index, a tuple, an object. The engine recomputes every
// cluster relation a call touches through its CommonFn, and an
// append-only engine reads the alive objects, the candidates of every
// mend and restore, from the arrival-ordered source NewSharded fixes at
// construction: the Monitor's registry, never a copy. The
// filter-then-verify orchestration and its Lemma 4.6 member mend live
// once, in ClusterShard, which the windowed engine shares.
//
// Where the exact engines depart from Algs. 1–2 as printed: a frontier
// member is an attribute tuple, not an object. Dominance (Def. 3.2) is a
// function of attribute values only, so identical tuples dominate and are
// dominated identically, and an exact Pareto frontier over the alive
// objects is a union of whole tuple classes. Each shard therefore keeps a
// table of the alive tuples (TupleClasses, next to TargetTracker in
// ClusterShard) and keys P_c, P_U, C_o and every scan by class
// id. Process first resolves the arrival: a twin — its tuple is alive —
// joins exactly the frontiers its class is in, so C_o is C_class and no
// comparison is made (Alg. 1's Identical case, taken once for all users
// and before any scan); a new tuple founds a class and runs the printed
// procedure over one entry per distinct tuple. Frontiers, targets and
// deliveries are the algorithms'; comparison counts are lower wherever
// the stream repeats itself. Object ids come back at the surface:
// UserFrontier, Targets and CaptureState expand classes, RemoveObject of
// a twin only drops an id, RestoreState and the lifecycle candidate lists
// collapse.
//
// Two kinds of engine opt out and keep one member per object. The
// approximate engine (NewFilterThenVerifyPerObject, NewShardedPerObject),
// because P̂_c is what the procedure leaves and not a set the attribute
// values determine: a member evicted from P̂_U under a pair of ≻̂_U that
// is not in ≻_c can leave a twin outside P̂_c that a later copy's scan
// would admit, so answering the copy from the twin would change Sec. 6.2's
// output. The windowed engines (internal/window), because the ring ages
// object ids and a class would have to be refreshed in it on every twin.
// Only this package can switch the table on, and the class-keyed
// constructors (NewFilterThenVerify, NewSharded) refuse a cluster relation
// that some member's does not subsume — as does a class-keyed shard handed
// one later by a lifecycle call — so an approximate relation cannot reach
// a class-keyed engine and change its output unnoticed. The per-object
// constructors also run the exact algorithms (NewBaselinePerObject): that
// is Algs. 1–2 as printed, which internal/experiments reports the paper's
// figures from.
//
// Two more departures, in how the exact FilterThenVerify scans and never
// in what it finds. First, each cluster keeps value postings over its filter
// frontier P_U (postings.go) — per attribute and value, a bitset of scan
// positions, the Bitmap skyline method carried to partial orders. A
// member can compare as anything but Incomparable with an arrival only if
// on every attribute its value equals the arrival's or is ordered with it
// under ≻_U, so once P_U reaches indexMinLen members the filter scan ANDs
// the ORed postings of those values and compares only the positions left,
// in ascending order with the linear scan's swap-delete retry. P_U, its
// scan order, every eviction, every P_c and every delivery are the linear
// scan's; the filter count drops by the tests that could only have
// returned Incomparable. The arrival path keeps the postings in step; the
// lifecycle calls and RestoreState mark them stale, and the next long scan
// rebuilds them from the scan list. The per-object engines, the
// approximate one and the windowed ones keep the linear scan.
//
// Second, a shared cluster of memberTableMin or more members verifies
// through its member table (membertable.go, kept by ClusterShard for both
// families): per attribute and value pair (x, y), a bitset over the
// member slots saying who has x ≻ y. A dominator p that one member's scan
// of P_c finds rejects the arrival for every member p dominates it for —
// one AND over p's cells — and their scans, which could only end in Right
// and evict nothing, are skipped. Every P_c, its scan order and every
// delivery are the per-member scans'; the verify count drops by the
// skipped scans and rises by one per member-set evaluation. Own clusters,
// smaller clusters, the per-object and the approximate engines keep the
// per-member scans.
//
// The sliding-window counterparts (Sec. 7) live in internal/window; the
// similarity measures and clustering in internal/cluster; the
// partial-order machinery in internal/order and internal/pref.
package core
