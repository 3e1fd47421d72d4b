// Package core implements the paper's primary contribution: continuous
// monitoring of Pareto frontiers for many users over an append-only object
// stream (Sultana & Li, EDBT 2018, Secs. 4–6).
//
//   - Baseline is Alg. 1: per-user BNL-style frontier maintenance.
//   - FilterThenVerify is Alg. 2: users are clustered by preference
//     similarity and a shared frontier P_U under each cluster's common
//     preference relation (Def. 4.1) filters objects before any per-user
//     work; Theorem 4.5 guarantees the filter discards only true
//     negatives. Given approximate common relations (Sec. 6.2) the same
//     engine is FilterThenVerifyApprox — "the algorithm itself remains
//     the same".
//
// Sharded is the engine every Monitor runs on: NewSharded deals the users
// (Alg. 1) or whole clusters (Alg. 2) over user-disjoint shards, each an
// instance of the same Baseline / FilterThenVerify struct with explicit
// membership (UserShard / ClusterShard, which the windowed engines embed
// too). One shard, dispatched inline, is the paper's single-threaded
// algorithm; more shards are an engineering extension beyond it, with
// results identical by construction — the equivalence tests pin that.
// NewBaseline and NewFilterThenVerify build the same struct standalone,
// owning every user: the reference the paper figures and tests use.
//
// The sliding-window counterparts (Sec. 7) live in internal/window; the
// similarity measures and clustering in internal/cluster; the
// partial-order machinery in internal/order and internal/pref.
package core
