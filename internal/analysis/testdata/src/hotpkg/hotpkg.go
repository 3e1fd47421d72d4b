// Package hotpkg is the hotpathalloc golden corpus: marked functions
// with each banned construct, plus the blessed shapes (receiver-owned
// scratch, result-slice make, cold closures, unmarked functions).
package hotpkg

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

type Proc struct {
	mu      sync.Mutex
	scratch []int
}

// Rebuild is cold: unmarked functions may allocate freely.
func (p *Proc) Rebuild(n int) map[int]bool {
	m := make(map[int]bool, n)
	fmt.Println("rebuilt at", time.Now())
	return m
}

// Step appends into receiver-owned scratch: amortized, allowed.
//
//paretomon:hotpath
func (p *Proc) Step(x int) int {
	p.scratch = append(p.scratch, x)
	return p.scratch[0] + x
}

// Result allocates its result slice: make([]T) is a deliberate
// per-batch allocation, not flagged.
//
//paretomon:hotpath
func (p *Proc) Result(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

//paretomon:hotpath
func (p *Proc) BadMap(x int) {
	m := make(map[int]int) // want `make\(map\) allocates on the hot path`
	m[x] = x
	_ = map[string]int{"a": 1} // want `map literal allocates on the hot path`
}

//paretomon:hotpath
func (p *Proc) BadAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `append grows function-local slice out`
	}
	return out
}

//paretomon:hotpath
func (p *Proc) BadCalls(x int) {
	fmt.Println(x) // want `fmt.Println call on the hot path`
	_ = time.Now() // want `time.Now on the hot path`
	p.mu.Lock()    // want `mutex Lock on the hot path`
	p.mu.Unlock()
}

// Sorted orders receiver-owned scratch in place: slices.SortFunc needs
// no reflection and no boxing, allowed.
//
//paretomon:hotpath
func (p *Proc) Sorted(xs []int) []int {
	p.scratch = append(p.scratch[:0], xs...)
	slices.SortFunc(p.scratch, func(a, b int) int { return a - b })
	return p.scratch
}

//paretomon:hotpath
func (p *Proc) BadSort(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })       // want `sort.Slice on the hot path`
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `sort.SliceStable on the hot path`
	sort.Ints(xs)
}

//paretomon:hotpath
func (p *Proc) BadBox(x int, sink func(any)) any {
	sink(x) // want `argument boxes int into an interface`
	var v any
	v = x // want `assignment boxes int into an interface`
	_ = v
	return x // want `return boxes int into an interface`
}

// Encoded appends into caller-owned scratch (a parameter), the shape of
// the internal/wire encoders: allowed.
//
//paretomon:hotpath
func Encoded(dst []byte, name string) []byte {
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"')
}

//paretomon:hotpath
func (p *Proc) BadJSON(dst []byte, v []string, dec *json.Decoder) []byte {
	data, _ := json.Marshal(v)   // want `json.Marshal call on the hot path`
	_ = json.Unmarshal(data, &v) // want `json.Unmarshal call on the hot path`
	_ = dec.Decode(&v)           // want `json.Decode call on the hot path`
	return append(dst, data...)
}

// WithCallback defers a closure that allocates: closures run off-path
// and are exempt.
//
//paretomon:hotpath
func (p *Proc) WithCallback(f func()) {
	defer func() {
		m := map[int]int{}
		_ = m
	}()
	f()
}
