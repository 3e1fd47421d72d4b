// Package partition scales writes past one process: it splits one
// logical community across N ordinary primary monitors — each a full
// durable paretomon process owning a consistent-hash slice of the users
// — and presents the fleet as a single Driver through a Router.
//
// The decomposition follows the paper's structure directly: every
// arriving object is evaluated against each user's preference order
// independently (Alg. 1; the cluster tier of Algs. 2–3 only shares work
// *within* a cluster of similar users), so the community partitions
// cleanly by user. The Router therefore sends every Add/AddBatch to
// every partition — each does only its users' share of the comparison
// work, all at once: a batch goes out to each partition over its ingest
// stream (one upgraded connection, see stream.go) before any reply is
// read — and routes user-scoped calls (Frontier,
// lifecycle, preferences, subscriptions) to the single partition that
// owns the user. Aggregate reads (Stats, Users, Clusters, storage
// stats) are merged across the fleet.
//
// A Plan is the deterministic contract between the router and the
// partition processes: the same (partitions, vnodes) pair computes the
// same owner for every user name in every process, so a partition
// started with `paretomon serve -partition i/n` holds exactly the users a
// router over n URLs will send it.
//
// Each partition is an ordinary durable primary — its own data dir, its
// own WAL — so the internal/replica changefeed composes into a tree:
//
//	router → N partitioned primaries → per-partition read followers
//
// Failure handling: per-partition calls carry a retry budget. Transport
// errors and 5xx responses are retried — after probing GET /readyz, so
// a partition restarting through recovery is waited out rather than
// hammered — while 4xx responses are authoritative. What cannot be
// completed within the budget surfaces as a *RouteError aggregating one
// *PartitionError (wrapping ErrPartitionDown) per failed partition.
// See docs/PARTITIONING.md for the ring layout, rebalancing caveats,
// and the failure playbook.
package partition
