// Package bitset provides a dense, growable set of small non-negative
// integers backed by a []uint64. It is the kernel under the
// partial-order engine of internal/order (each transitive-closure row of
// a Def. 3.1 preference relation is one bitset) and the C_o target
// bookkeeping of Algs. 1–2: intersection of preference relations
// (Def. 4.1's common relation), dominance tests, and target-set
// membership all reduce to word-parallel operations on these sets. Rows
// and CloneRows lay many sets over one backing array, so a relation's
// rows cost a constant number of allocations.
package bitset
