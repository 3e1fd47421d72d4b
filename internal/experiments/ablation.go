package experiments

import (
	"fmt"

	"repro/internal/accuracy"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/stats"
)

// Ablation experiments probe the design choices behind the paper's
// defaults: which similarity measure to cluster with (Sec. 5 proposes four
// and two vector variants but evaluates only one), how the approximation
// thresholds θ1/θ2 trade comparisons against recall (Sec. 6.1 discusses
// the tension qualitatively), and where the cluster-granularity sweet spot
// of the k-vs-m trade-off (Sec. 4's complexity analysis) actually lies.
// They are not paper figures; ids "ablation-*" expose them through
// cmd/experiments and BenchmarkAblation* in bench_test.go.

// runEngineOnce feeds the whole object table through a freshly built
// engine and returns its counters.
func runEngineOnce(build func(*stats.Counters) engine, objs []object.Object, dims int) (*stats.Counters, engine) {
	ctr := &stats.Counters{}
	eng := build(ctr)
	str := object.NewStream(objs, len(objs), dims)
	for {
		o, ok := str.Next()
		if !ok {
			break
		}
		eng.Process(o)
	}
	return ctr, eng
}

// clusterStats summarizes a clustering.
func clusterStats(cls []core.Cluster) (k, maxSize int, avg float64) {
	total := 0
	for _, c := range cls {
		total += len(c.Members)
		if len(c.Members) > maxSize {
			maxSize = len(c.Members)
		}
	}
	if len(cls) > 0 {
		avg = float64(total) / float64(len(cls))
	}
	return len(cls), maxSize, avg
}

// AblationMeasures compares the four exact similarity measures of Sec. 5
// (plus the two vector measures of Sec. 6.3) as the clustering driver for
// FilterThenVerify on the movie workload: cluster shape and total
// comparisons. Every exact run returns identical frontiers — only the
// work differs — so comparisons alone rank the measures.
func AblationMeasures(o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset("movie")
	users := projectUsers(ds.Users, o.Dims)
	rep := &Report{
		ID:      "ablation-measures",
		Title:   fmt.Sprintf("similarity-measure ablation, movie, |O|=%d, |C|=%d, d=%d", len(ds.Objects), len(ds.Users), o.Dims),
		Columns: []string{"measure", "clusters", "max", "avg", "comparisons"},
	}

	baseCtr, _ := runEngineOnce(func(ctr *stats.Counters) engine {
		return core.NewBaselinePerObject(users, ctr)
	}, ds.Objects, o.Dims)
	rep.Rows = append(rep.Rows, []string{"(Baseline)", "-", "-", "-", fmtCount(baseCtr.Comparisons)})

	for _, m := range []cluster.Measure{
		cluster.IntersectionSize, cluster.Jaccard,
		cluster.WeightedIntersection, cluster.WeightedJaccard,
		cluster.VectorJaccard, cluster.VectorWeightedJaccard,
	} {
		o.logf("ablation-measures: %v ...", m)
		// Intersection-size style measures are unbounded counts; Jaccard
		// style measures live in [0, d]. Use the calibrated branch cut for
		// the Jaccard family and a count threshold for the others.
		h := mapH("movie", m.IsVector(), o.H, o.Dims)
		if m == cluster.IntersectionSize || m == cluster.WeightedIntersection {
			h = 800 // tuples (resp. weighted tuples) shared across attributes
		}
		res := cluster.Agglomerative(users, m, h)
		cls := make([]core.Cluster, len(res.Clusters))
		for i, ci := range res.Clusters {
			cls[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
		}
		ctr, _ := runEngineOnce(func(ctr *stats.Counters) engine {
			return core.NewFilterThenVerifyPerObject(users, cls, ctr)
		}, ds.Objects, o.Dims)
		k, maxSz, avg := clusterStats(cls)
		rep.Rows = append(rep.Rows, []string{
			m.String(), fmtInt(k), fmtInt(maxSz), fmtFloat(avg), fmtCount(ctr.Comparisons),
		})
	}
	return []*Report{rep}
}

// AblationTheta sweeps the approximation thresholds: θ2 (minimum member
// frequency) drives how aggressively the cluster relation over-approximates
// the common relation, θ1 caps its size. Reported against exact ground
// truth: comparisons, precision, recall — the quantitative version of
// Sec. 6.1's "clear tradeoff".
func AblationTheta(o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset("movie")
	users := projectUsers(ds.Users, o.Dims)
	rep := &Report{
		ID:      "ablation-theta",
		Title:   fmt.Sprintf("θ1/θ2 ablation for FilterThenVerifyApprox, movie, |O|=%d, |C|=%d, h=%.2f", len(ds.Objects), len(ds.Users), o.H),
		Columns: []string{"theta1", "theta2", "comparisons", "precision", "recall"},
	}

	_, baseEng := runEngineOnce(func(ctr *stats.Counters) engine {
		return core.NewBaselinePerObject(users, ctr)
	}, ds.Objects, o.Dims)
	truth := frontiers(baseEng, len(users))

	for _, t1 := range []int{500, 2500, 10000} {
		for _, t2 := range []float64{0.9, 0.7, 0.5, 0.3} {
			o.logf("ablation-theta: θ1=%d θ2=%.1f ...", t1, t2)
			cls := approxClusters(users, mapH("movie", true, o.H, o.Dims), t1, t2)
			ctr, eng := runEngineOnce(func(ctr *stats.Counters) engine {
				return core.NewFilterThenVerifyPerObject(users, cls, ctr)
			}, ds.Objects, o.Dims)
			acc := accuracy.Evaluate(truth, frontiers(eng, len(users)))
			rep.Rows = append(rep.Rows, []string{
				fmtInt(t1), fmtFloat(t2), fmtCount(ctr.Comparisons),
				fmtPct(acc.Precision()), fmtPct(acc.Recall()),
			})
		}
	}
	return []*Report{rep}
}

// AblationGranularity sweeps the branch cut across the whole operative
// range, exposing the k-versus-m trade-off of Sec. 4's complexity
// analysis: singleton clusters duplicate work (k ≈ |C|), one mega-cluster
// starves the filter (common relation ≈ ∅); the optimum sits at the
// latent taste-group granularity.
func AblationGranularity(o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset("movie")
	users := projectUsers(ds.Users, o.Dims)
	rep := &Report{
		ID:      "ablation-granularity",
		Title:   fmt.Sprintf("branch-cut granularity sweep, movie, |O|=%d, |C|=%d", len(ds.Objects), len(ds.Users)),
		Columns: []string{"h(raw)", "clusters", "max", "comparisons"},
	}
	for _, h := range []float64{0.5, 2.0, 3.0, 3.3, 3.6, 3.8, 3.95, 10} {
		o.logf("ablation-granularity: h=%.2f ...", h)
		cls := exactClusters(users, h)
		ctr, _ := runEngineOnce(func(ctr *stats.Counters) engine {
			return core.NewFilterThenVerifyPerObject(users, cls, ctr)
		}, ds.Objects, o.Dims)
		k, maxSz, _ := clusterStats(cls)
		rep.Rows = append(rep.Rows, []string{
			fmtFloat(h), fmtInt(k), fmtInt(maxSz), fmtCount(ctr.Comparisons),
		})
	}
	return []*Report{rep}
}

func init() {
	All["ablation-measures"] = AblationMeasures
	All["ablation-theta"] = AblationTheta
	All["ablation-granularity"] = AblationGranularity
}

// AblationClusteringMethods pits the paper's hierarchical agglomerative
// clustering against the alternative k-medoids implementation at matched
// cluster counts, under the same similarity measure — quantifying the
// paper's claim that its contribution is the measures, not the method.
// Reported per method: cluster count, cohesion-minus-separation quality,
// and FilterThenVerify comparisons using the resulting clusters.
func AblationClusteringMethods(o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset("movie")
	users := projectUsers(ds.Users, o.Dims)
	rep := &Report{
		ID:      "ablation-clustering",
		Title:   fmt.Sprintf("clustering-method ablation (sim_wj), movie, |O|=%d, |C|=%d", len(ds.Objects), len(ds.Users)),
		Columns: []string{"method", "clusters", "quality", "comparisons"},
	}

	run := func(name string, infos []cluster.Info) {
		cls := make([]core.Cluster, len(infos))
		for i, ci := range infos {
			cls[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
		}
		ctr, _ := runEngineOnce(func(ctr *stats.Counters) engine {
			return core.NewFilterThenVerifyPerObject(users, cls, ctr)
		}, ds.Objects, o.Dims)
		q := cluster.Quality(users, infos, cluster.WeightedJaccard)
		rep.Rows = append(rep.Rows, []string{name, fmtInt(len(infos)), fmtFloat(q), fmtCount(ctr.Comparisons)})
	}

	o.logf("ablation-clustering: HAC ...")
	hac := cluster.Agglomerative(users, cluster.WeightedJaccard, mapH("movie", false, o.H, o.Dims))
	run("HAC(h)", hac.Clusters)
	o.logf("ablation-clustering: k-medoids (k=%d) ...", len(hac.Clusters))
	km := cluster.KMedoids(users, cluster.WeightedJaccard, len(hac.Clusters), 0)
	run("k-medoids", km.Clusters)
	return []*Report{rep}
}

func init() {
	All["ablation-clustering"] = AblationClusteringMethods
}
