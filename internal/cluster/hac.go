package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pref"
)

// Info describes one resulting cluster: the member user indices and the
// cluster's common preference profile (the intersection of its members'
// relations — the virtual user U of Def. 4.1).
type Info struct {
	Members []int
	Common  *pref.Profile
}

// MergeStep records one agglomeration for dendrogram inspection: clusters
// A and B (by their position in the evolving cluster list) merged at the
// given similarity into cluster Result.
type MergeStep struct {
	A, B, Result int
	Sim          float64
}

// Result is the outcome of hierarchical agglomerative clustering.
type Result struct {
	Clusters []Info
	// Dendrogram lists the merges in the order they happened. Node ids
	// 0..n-1 are the singleton users; n+k is the cluster created by the
	// k-th merge.
	Dendrogram []MergeStep
}

// pairItem is a candidate merge in the priority queue.
type pairItem struct {
	sim  float64
	a, b int // node ids
}

type pairHeap []pairItem

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].sim != h[j].sim {
		return h[i].sim > h[j].sim // max-heap on similarity
	}
	if h[i].a != h[j].a { // deterministic tie-break
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// node is a live or merged cluster during agglomeration.
type node struct {
	members []int
	common  *pref.Profile
	vec     *Vector // only for vector measures
	alive   bool
}

// Agglomerative clusters the users bottom-up with the conventional
// hierarchical agglomerative algorithm (Sec. 5): every user starts as a
// singleton; at each step the two most similar clusters merge, the merged
// cluster's common preference relation is recomputed (by intersection —
// or, for vector measures, its frequency vector by summation), and merging
// stops when no pair reaches similarity h (the dendrogram branch cut).
//
// Example 5.5's trace: over Table 3 with sim_wj, the cluster set is
// {{c1,c2,c5,c6}, {c3,c4}} for h ∈ (0, 3/11].
func Agglomerative(users []*pref.Profile, m Measure, h float64) *Result {
	return agglomerate(users, m, h, 0)
}

// AgglomerativeK clusters like Agglomerative but stops when k clusters
// remain instead of cutting the dendrogram at a similarity threshold:
// the most similar pair keeps merging (regardless of how low the
// similarity drops) until the target count is reached. With k >= n every
// user stays a singleton.
func AgglomerativeK(users []*pref.Profile, m Measure, k int) *Result {
	if k < 1 {
		k = 1
	}
	return agglomerate(users, m, math.Inf(-1), k)
}

// agglomerate is the shared bottom-up merge loop. Merging stops when no
// candidate pair reaches similarity h, or — when k > 0 — as soon as only
// k clusters remain.
//
// The all-pairs pass and each merged node's row fan out over
// runtime.GOMAXPROCS(0) goroutines (fanOut). That cannot change the
// dendrogram: every similarity is one goroutine's fixed-order sum, the
// same bits on any goroutine, and pairHeap.Less is a strict total order
// on (sim, a, b), so the pop order does not depend on the order the pairs
// reached the heap in — they reach it in ascending (a, b) anyway.
func agglomerate(users []*pref.Profile, m Measure, h float64, k int) *Result {
	n := len(users)
	if n == 0 {
		return &Result{}
	}
	nodes := make([]*node, 0, 2*n)
	for i, u := range users {
		// The leaf is a clone on purpose: the similarity passes cache Hasse
		// views and weights on the relations they read, and on a clone those
		// caches die with the build instead of staying on the caller's live
		// profiles (borrowing u: +4–5 % live heap on a 160-user windowed
		// monitor for no measurable build time; docs/PERFORMANCE.md).
		nd := &node{members: []int{i}, common: u.Clone(), alive: true}
		if m.IsVector() {
			nd.vec = NewVector([]*pref.Profile{nd.common}, m == VectorWeightedJaccard)
		}
		nodes = append(nodes, nd)
	}

	sim := func(a, b *node) float64 {
		if m.IsVector() {
			return SimVectors(a.vec, b.vec)
		}
		return Sim(m, a.common, b.common)
	}

	procs := runtime.GOMAXPROCS(0)
	if n*(n-1)/2 < minFanOutPairs {
		procs = 1
	}
	if procs > 1 {
		for _, nd := range nodes {
			warm(m, nd)
		}
	}

	// The all-pairs pass: row i holds the pairs (i, j > i) that reach h,
	// in ascending j, and the rows go onto the heap in ascending i.
	rows := make([][]pairItem, n)
	fanOut(n, procs, func(i int) {
		for j := i + 1; j < n; j++ {
			if s := sim(nodes[i], nodes[j]); s >= h {
				rows[i] = append(rows[i], pairItem{sim: s, a: i, b: j})
			}
		}
	})
	pq := &pairHeap{}
	for _, r := range rows {
		*pq = append(*pq, r...)
	}
	heap.Init(pq)

	res := &Result{}
	alive := n
	live, sims := make([]int, 0, n), make([]float64, n)
	for pq.Len() > 0 {
		if k > 0 && alive <= k {
			break
		}
		it := heap.Pop(pq).(pairItem)
		if !nodes[it.a].alive || !nodes[it.b].alive {
			continue // stale pair: one side already merged away
		}
		if it.sim < h {
			break
		}
		alive--
		na, nb := nodes[it.a], nodes[it.b]
		na.alive, nb.alive = false, false
		merged := &node{
			members: append(append([]int{}, na.members...), nb.members...),
			alive:   true,
		}
		sort.Ints(merged.members)
		merged.common = pref.Common([]*pref.Profile{na.common, nb.common})
		if m.IsVector() {
			merged.vec = na.vec.Merge(nb.vec)
		}
		id := len(nodes)
		nodes = append(nodes, merged)
		res.Dendrogram = append(res.Dendrogram, MergeStep{A: it.a, B: it.b, Result: id, Sim: it.sim})
		live = live[:0]
		for j, nj := range nodes[:id] {
			if nj.alive {
				live = append(live, j)
			}
		}
		sims = sims[:len(live)]
		rowProcs := procs
		if len(live) < minFanOutRow {
			rowProcs = 1
		}
		if rowProcs > 1 {
			warm(m, merged)
		}
		fanOut(len(live), rowProcs, func(x int) { sims[x] = sim(merged, nodes[live[x]]) })
		for x, j := range live {
			if sims[x] >= h {
				heap.Push(pq, pairItem{sim: sims[x], a: j, b: id})
			}
		}
	}

	for _, nd := range nodes {
		if nd.alive {
			res.Clusters = append(res.Clusters, Info{Members: nd.members, Common: nd.common})
		}
	}
	// Deterministic output order: by smallest member.
	sort.Slice(res.Clusters, func(i, j int) bool {
		return res.Clusters[i].Members[0] < res.Clusters[j].Members[0]
	})
	return res
}

// The similarity passes fan out over runtime.GOMAXPROCS(0) goroutines
// only from these sizes up: a build whose all-pairs pass has fewer than
// minFanOutPairs pairs (about 46 users; a routed partition of a small
// community) runs inline throughout and starts no goroutine, and so does
// a merge row with fewer than minFanOutRow live partners.
const (
	minFanOutPairs = 1024
	minFanOutRow   = 16
)

// fanOut calls f(k) for every k in [0, n) on up to procs goroutines, the
// caller's among them, each pulling the next k from a shared counter, and
// returns when every call has. With procs 1 no goroutine starts.
func fanOut(n, procs int, f func(k int)) {
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			f(k)
		}
	}
	var wg sync.WaitGroup
	for range min(procs, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// warm computes, on the caller's goroutine, what a similarity between nd
// and another node reads lazily: the weighted exact measures read
// order.Relation.Weights, whose derived views are built unsynchronised on
// first use. The other exact measures read only the closure rows, and a
// Vector is immutable once built.
func warm(m Measure, nd *node) {
	if m != WeightedIntersection && m != WeightedJaccard {
		return
	}
	for d := 0; d < nd.common.Dims(); d++ {
		nd.common.Relation(d).Weights()
	}
}

// String renders the clustering compactly, e.g. "[[0 1] [2 3]]".
func (r *Result) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range r.Clusters {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, c.Members)
	}
	b.WriteByte(']')
	return b.String()
}
