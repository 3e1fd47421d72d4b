package window_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// BenchmarkWindowTierReport is a deterministic report, not a timing: over
// one stream through the exact Alg. 5 engine it reads BufferViews before
// every arrival past the first W and reports, per cluster and arrival,
// the mean |PB_U| and |P_U| and the largest |PB_U|; of the arrivals that
// reach the member tier (they join P_U), the share with a twin in P_U; of
// the departures the member tier mends for (a held P_U entry expires),
// the share that leaves a twin in P_U; and the comparisons per arrival of
// the buffer walk (filter) and of the member tier (verify). Run it with
//
//	go test -run '^$' -bench WindowTierReport -benchtime 1x ./internal/window
//
// The shapes are window_mix's (160 movie users with their Hasse tuples
// asserted, clustered at branch cut 3.3, W = 400, a shuffled 2¹⁷-object
// catalogue; arrivals only) and Fig. 8b's FTV-SW at W = 3 200 (200 users,
// 4 000 objects replayed into 20 000 arrivals, branch cut 3.3).
func BenchmarkWindowTierReport(b *testing.B) {
	var shapes []tierShape
	{ // window_mix
		cfg := datagen.Movie().Scaled(1<<17, 160)
		cfg.Seed = 1
		ds := datagen.Generate(cfg)
		users := make([]*pref.Profile, len(ds.Users))
		for u, p := range ds.Users {
			users[u] = pref.NewProfile(ds.Domains)
			for d := range ds.Domains {
				for _, e := range p.Relation(d).HasseTuples() {
					users[u].Relation(d).Add(e.Better, e.Worse)
				}
			}
		}
		objs := make([]object.Object, 16384)
		for i, c := range rand.New(rand.NewSource(1)).Perm(len(ds.Objects))[:len(objs)] {
			objs[i] = object.Object{ID: i, Attrs: ds.Objects[c].Attrs}
		}
		shapes = append(shapes, tierShape{"window_mix", users, objs, 400, clustersAt(users, 3.3)})
	}
	{ // Fig. 8b
		ds := datagen.Generate(datagen.Movie().Scaled(4000, 200))
		str := object.NewStream(ds.Objects, 20000, 4)
		var objs []object.Object
		for o, ok := str.Next(); ok; o, ok = str.Next() {
			objs = append(objs, o)
		}
		shapes = append(shapes, tierShape{"fig8b/W=3200", ds.Users, objs, 3200, clustersAt(ds.Users, 3.3)})
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			for range b.N {
				r := tierReport(sh.users, sh.clusters, sh.objs, sh.w)
				b.ReportMetric(r.pb/r.seen, "PB_U/arrival")
				b.ReportMetric(float64(r.pbMax), "PB_U-max")
				b.ReportMetric(r.pu/r.seen, "P_U/arrival")
				b.ReportMetric(float64(r.twinIn)/float64(r.tierIn), "twin-arrivals")
				b.ReportMetric(float64(r.twinOut)/float64(r.tierOut), "twin-departures")
				b.ReportMetric(float64(r.walk)/float64(r.n), "walk-cmp/obj")
				b.ReportMetric(float64(r.tier)/float64(r.n), "tier-cmp/obj")
			}
		})
	}
}

// tierShape is one workload of the report.
type tierShape struct {
	name     string
	users    []*pref.Profile
	objs     []object.Object
	w        int
	clusters []core.Cluster
}

// clustersAt clusters users as the Monitor does, weighted Jaccard at
// branch cut h.
func clustersAt(users []*pref.Profile, h float64) []core.Cluster {
	res := cluster.Agglomerative(users, cluster.WeightedJaccard, h)
	out := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		out[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
	}
	return out
}

// report is what tierReport counts past the first W arrivals.
type report struct {
	seen, pb, pu     float64 // cluster-arrivals, and the sizes summed over them
	pbMax            int
	tierIn, twinIn   int // arrivals joining P_U, and those with a twin there
	tierOut, twinOut int // held P_U entries expiring, and those leaving a twin there
	n                int
	walk, tier       uint64
}

func tierReport(users []*pref.Profile, clusters []core.Cluster, objs []object.Object, w int) report {
	ctr := &stats.Counters{}
	eng := window.NewFilterThenVerifySW(users, clusters, w, ctr)
	var r report
	for _, o := range objs[:w] {
		eng.Process(o)
	}
	base := *ctr
	for _, o := range objs[w:] {
		views := eng.BufferViews(false)
		out := o.ID - w
		for _, v := range views {
			r.seen++
			r.pb += float64(len(v.IDs))
			r.pu += float64(len(v.Frontier))
			r.pbMax = max(r.pbMax, len(v.IDs))
			if i := slices.Index(v.IDs, out); i >= 0 && v.Shields[i] == window.NoShield && heldBy(eng, out, v.Members) {
				r.tierOut++
				if v.Younger[i] {
					r.twinOut++
				}
			}
		}
		eng.Process(o)
		for k, v := range eng.BufferViews(false) {
			if !slices.Contains(v.Frontier, o.ID) {
				continue
			}
			r.tierIn++
			if slices.ContainsFunc(views[k].Frontier, func(id int) bool { return id != out && slices.Equal(objs[id].Attrs, o.Attrs) }) {
				r.twinIn++
			}
		}
	}
	r.n = len(objs) - w
	r.walk = ctr.FilterComparisons - base.FilterComparisons
	r.tier = ctr.VerifyComparisons - base.VerifyComparisons
	return r
}

// heldBy reports whether one of members holds id.
func heldBy(eng *window.FilterThenVerifySW, id int, members []int) bool {
	return slices.ContainsFunc(eng.Targets(id), func(c int) bool { return slices.Contains(members, c) })
}
