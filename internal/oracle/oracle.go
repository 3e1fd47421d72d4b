// Package oracle computes the paper's definitions from scratch over plain
// slices — dominance and the Pareto frontier (Def. 3.2), the common
// relation (Def. 4.1), the window frontier and buffer (Defs. 7.1, 7.4),
// the youngest dominators window shields name — with no incremental state
// and only the standard library, so no kernel the engines run is on the
// path of the reference the tests hold them to.
package oracle

import "slices"

// Prefs is one preference profile: for each attribute, (better, worse)
// pairs. The strict order on attribute d is the transitive closure of
// Prefs[d] (Def. 3.1); the pairs need not be closed. An object is its
// attribute values, one per attribute of the profile.
type Prefs[V comparable] [][][2]V

// Cmp is an outcome of Compare: Left when the first object dominates the
// second, Right when the second dominates the first, Identical when they
// agree on every attribute, Incomparable otherwise.
type Cmp int8

const (
	Incomparable Cmp = iota
	Left
	Right
	Identical
)

// Compare is Def. 3.2 under p for every ordered pair of objs: out[i][j]
// compares objs[i] with objs[j].
func Compare[V comparable](p Prefs[V], objs [][]V) [][]Cmp {
	o := closeOver(p)
	out := make([][]Cmp, len(objs))
	for i, a := range objs {
		out[i] = make([]Cmp, len(objs)) // Incomparable unless a case below holds
		for j, b := range objs {
			switch {
			case slices.Equal(a, b):
				out[i][j] = Identical
			case o.dominates(a, b):
				out[i][j] = Left
			case o.dominates(b, a):
				out[i][j] = Right
			}
		}
	}
	return out
}

// Frontier returns, ascending, the positions of the objects no object of
// objs dominates under p (Def. 3.2; Def. 7.1 when objs is the window).
func Frontier[V comparable](p Prefs[V], objs [][]V) []int {
	return where(p, objs, func(i, youngest int) bool { return youngest < 0 })
}

// Buffer returns, ascending, the positions of the objects no later object
// of objs dominates under p (Def. 7.4 when objs is the window, oldest first).
func Buffer[V comparable](p Prefs[V], objs [][]V) []int {
	return where(p, objs, func(i, youngest int) bool { return youngest < i })
}

// Shields returns, for each object of objs, the position of the youngest
// (last) object that dominates it under p, or -1 when none does.
func Shields[V comparable](p Prefs[V], objs [][]V) []int {
	o := closeOver(p)
	out := make([]int, len(objs))
	for i := range objs {
		out[i] = o.youngest(objs, i)
	}
	return out
}

// Common returns the common preference relation of one or more profiles
// (Def. 4.1): on each attribute, the pairs every member's closure holds.
func Common[V comparable](ps ...Prefs[V]) Prefs[V] {
	orders := make([]order[V], len(ps))
	for k, p := range ps {
		orders[k] = closeOver(p)
	}
	out := make(Prefs[V], len(ps[0]))
	for d, rel := range orders[0] {
		for pair := range rel {
			held := true
			for _, o := range orders[1:] {
				held = held && o[d][pair]
			}
			if held {
				out[d] = append(out[d], pair)
			}
		}
	}
	return out
}

// where returns, ascending, the positions i of objs whose youngest
// dominator under p satisfies keep.
func where[V comparable](p Prefs[V], objs [][]V, keep func(i, youngest int) bool) []int {
	o := closeOver(p)
	out := []int{}
	for i := range objs {
		if keep(i, o.youngest(objs, i)) {
			out = append(out, i)
		}
	}
	return out
}

// order is a profile's strict orders, one per attribute: order[d][{x, y}]
// holds when x ≻ y.
type order[V comparable] []map[[2]V]bool

// closeOver closes p's pairs transitively, attribute by attribute, by a
// depth-first search from every value preferred to another.
func closeOver[V comparable](p Prefs[V]) order[V] {
	o := make(order[V], len(p))
	for d, pairs := range p {
		succ := map[V][]V{}
		for _, pr := range pairs {
			succ[pr[0]] = append(succ[pr[0]], pr[1])
		}
		o[d] = map[[2]V]bool{}
		for x := range succ {
			stack := append([]V(nil), succ[x]...)
			for len(stack) > 0 {
				y := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !o[d][[2]V{x, y}] {
					o[d][[2]V{x, y}] = true
					stack = append(stack, succ[y]...)
				}
			}
		}
	}
	return o
}

// dominates is Def. 3.2: a differs from b and is at least as good on
// every attribute.
func (o order[V]) dominates(a, b []V) bool {
	differ := false
	for d, rel := range o {
		if a[d] != b[d] {
			if !rel[[2]V{a[d], b[d]}] {
				return false
			}
			differ = true
		}
	}
	return differ
}

// youngest returns the position of the last object of objs that dominates
// objs[i], or -1.
func (o order[V]) youngest(objs [][]V, i int) int {
	for j := len(objs) - 1; j >= 0; j-- {
		if o.dominates(objs[j], objs[i]) {
			return j
		}
	}
	return -1
}
