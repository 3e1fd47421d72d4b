package order

// Diagnostics over the poset structure. These are not on any hot path;
// datagen's tests use them to characterize how chain-like (dense) or
// antichain-like (sparse) generated preference relations are.

// Height returns the number of values on a longest chain in the relation
// (1 for an empty or edgeless relation over a non-empty domain, 0 for an
// empty domain). A product order derived from perfectly concordant scores
// approaches Height == number of scored values; heavy incomparability
// pushes it toward 1.
func (r *Relation) Height() int {
	if r.n == 0 {
		return 0
	}
	// Longest path over the closed DAG via memoized DFS on Hasse edges.
	h := r.HasseEdges()
	memo := make([]int, r.n)
	var depth func(v int) int
	depth = func(v int) int {
		if memo[v] != 0 {
			return memo[v]
		}
		best := 1
		h[v].ForEach(func(w int) bool {
			if d := depth(w) + 1; d > best {
				best = d
			}
			return true
		})
		memo[v] = best
		return best
	}
	best := 1
	for v := 0; v < r.n; v++ {
		if d := depth(v); d > best {
			best = d
		}
	}
	return best
}

// Comparability returns the fraction of unordered value pairs that the
// relation orders, in [0, 1]: |≻| / (n·(n−1)/2) over the values the
// relation spans. 1 means a total order; 0 means everything is mutually
// incomparable.
func (r *Relation) Comparability() float64 {
	if r.n < 2 {
		return 0
	}
	pairs := r.n * (r.n - 1) / 2
	return float64(r.size) / float64(pairs)
}
