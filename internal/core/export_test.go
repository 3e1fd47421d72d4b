package core

import (
	"iter"
	"slices"
	"testing"

	"repro/internal/object"
	"repro/internal/order"
)

// NewTupleClasses returns a class table that is on, which outside the
// tests only this package's constructors can make (BenchmarkResolve).
func NewTupleClasses() TupleClasses {
	var t TupleClasses
	t.enable()
	return t
}

// SetAlive gives a standalone engine the alive-object source NewSharded
// hands every shard it builds.
func (m *MemberIndex) SetAlive(alive iter.Seq[object.Object]) { m.source = alive }

// ShardsOf returns the bookkeeping of every shard of s, of either family:
// the window engines embed ClusterShard as the append-only ones do.
func ShardsOf(s *Sharded) []*ClusterShard {
	out := make([]*ClusterShard, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.(interface{ clusterShard() *ClusterShard }).clusterShard()
	}
	return out
}

func (s *ClusterShard) clusterShard() *ClusterShard { return s }

// TableShape reports cluster li's member table: the words of one member
// set, and the values of each attribute its cells cover (nil while the
// cells are unbuilt).
func (s *ClusterShard) TableShape(li int) (words int, n []int) {
	if t := &s.tables[li]; t.built {
		return t.words, t.n
	}
	return s.tables[li].words, nil
}

// ClusterFronts returns every live shared cluster's P_U as object ids in
// scan order, keyed by global cluster index.
func ClusterFronts(s *Sharded) map[int][]int {
	out := map[int][]int{}
	for _, sh := range ShardsOf(s) {
		for li, cl := range sh.Clusters {
			if len(cl.Members) > 0 && !sh.Own(li) {
				out[sh.GlobalIndex(li)] = sh.ClusterFrontier(li)
			}
		}
	}
	return out
}

// CheckPostings holds every current value-postings index of every
// FilterThenVerify shard of s to a recomputation from its frontier's
// scan list: each posting holds exactly the positions whose member has
// its value, the counts match, values past order.TableMaxN are counted in
// over, and no bit lies past the frontier's end.
func CheckPostings(t testing.TB, s *Sharded) {
	t.Helper()
	for _, sh := range s.shards {
		f, ok := sh.(*FilterThenVerify)
		for ui := 0; ok && ui < len(f.postings); ui++ {
			ix, fu := &f.postings[ui], f.ClusterFronts[ui]
			for d := 0; ix.current(fu) && d < len(ix.post); d++ {
				want, over := make([][]int, len(ix.post[d])), int32(0)
				for i, o := range fu.Objects() {
					switch v := int(o.Attrs[d]); {
					case v >= order.TableMaxN:
						over++
					case v >= len(want):
						t.Fatalf("cluster %d attribute %d: member at %d has value %d, postings stop at %d", ui, d, i, v, len(want))
					default:
						want[v] = append(want[v], i)
					}
				}
				if ix.over[d] != over {
					t.Fatalf("cluster %d attribute %d: over = %d, want %d", ui, d, ix.over[d], over)
				}
				for v, set := range ix.post[d] {
					if got := set.Slice(); !slices.Equal(got, want[v]) || int(ix.count[d][v]) != len(want[v]) {
						t.Fatalf("cluster %d attribute %d value %d: postings %v counting %d, scan list has %v", ui, d, v, got, ix.count[d][v], want[v])
					}
				}
			}
		}
	}
}
