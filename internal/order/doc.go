// Package order implements the strict-partial-order engine that underlies
// user preferences (Sultana & Li, EDBT 2018, Sec. 3): interned attribute
// domains, transitively closed preference relations (the ≻ of Def. 3.1,
// kept closed so dominance tests are O(1) bitset probes), Hasse diagrams
// (transitive reductions), maximal values, and the distance-from-maximal
// depth weights w(v) = 1/2^depth that drive the weighted similarity
// measures of Sec. 5 (Eqs. 4–5) and their vector forms of Sec. 6.3.
//
// A Relation's rows are one slab: NewRelation, Clone and Remove's rebuild
// lay all n closure rows over a single word array (bitset.Rows), so a
// relation costs a constant number of allocations whatever its domain
// size. Rows are capped, so one that grows copies itself out instead of
// overwriting its neighbour; a value interned after the relation was made
// gets a row of its own. A common relation (Def. 4.1) is one Clone
// narrowed in place by IntersectWith, once per further member.
package order
