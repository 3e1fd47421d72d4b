// Package cluster implements Sec. 5 and Sec. 6.3 of Sultana & Li (EDBT
// 2018): clustering users whose preferences are strict partial orders. It
// provides the four exact inter-cluster similarity measures (intersection
// size, Jaccard, weighted intersection size, weighted Jaccard; Eqs. 2–5),
// their frequency-vector counterparts for the approximate regime
// (Eqs. 9–10), and hierarchical agglomerative clustering with a
// dendrogram branch cut h (plus a merge-to-k-clusters variant). The
// resulting clusters — members plus a common preference relation — are
// what the filter-then-verify engines in internal/core and
// internal/window share computation over.
//
// Clustering is deterministic to the bit: every similarity is a float64
// sum taken in one fixed order — the exact measures row by row over the
// relations' successor bitsets in ascending value id
// (order.Relation.WeightedOverlap, bit-identical to adding the tuples one
// by one), the vector measures in ascending tuple-key order over sorted
// key/value slices — and the merge heap breaks ties by node id. The same
// profiles therefore give the same dendrogram, similarity bits included,
// on every call and in every process, which is what lets a WAL-only
// reopen or a follower re-cluster to the clusters the primary found.
//
// Nor does the dendrogram depend on GOMAXPROCS. Agglomerative fans the
// all-pairs pass and each merged node's row out over
// runtime.GOMAXPROCS(0) goroutines (inline below about 46 users); each
// similarity is still one goroutine's fixed-order sum, and the merge heap
// orders pairs strictly by (similarity, ids), so the pop order is the
// inline loop's at any setting.
package cluster
