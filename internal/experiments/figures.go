package experiments

import (
	"fmt"
	"sort"

	"repro/internal/accuracy"
	"repro/internal/object"
	"repro/internal/stats"
)

// progressive is the Fig. 4 / Fig. 5 driver: cumulative execution time and
// object comparisons at |O| checkpoints for the three append-only engines.
func progressive(dsName string, checkpoints []int, o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset(dsName)
	if checkpoints == nil {
		n := len(ds.Objects)
		checkpoints = []int{n / 4, n / 2, 3 * n / 4, n}
	}
	specs := appendOnlyEngines(dsName, ds.Users, o.Dims, o)

	timeRep := &Report{
		Title:   fmt.Sprintf("cumulative execution time (ms), %s, |O|=%d, |C|=%d, d=%d, h=%.2f", dsName, len(ds.Objects), len(ds.Users), o.Dims, o.H),
		Columns: []string{"tuples"},
	}
	cmpRep := &Report{
		Title:   fmt.Sprintf("object comparisons, %s, |O|=%d, |C|=%d, d=%d, h=%.2f", dsName, len(ds.Objects), len(ds.Users), o.Dims, o.H),
		Columns: []string{"tuples"},
	}
	series := make([][]measured, len(specs))
	for i, spec := range specs {
		o.logf("%s: running %s ...", dsName, spec.name)
		str := object.NewStream(ds.Objects, checkpoints[len(checkpoints)-1], o.Dims)
		series[i] = runCheckpoints(spec, str, checkpoints)
		timeRep.Columns = append(timeRep.Columns, spec.name)
		cmpRep.Columns = append(cmpRep.Columns, spec.name)
	}
	for ci, cp := range checkpoints {
		trow := []string{fmtInt(cp)}
		crow := []string{fmtInt(cp)}
		for i := range specs {
			trow = append(trow, fmtMS(series[i][ci].millis))
			crow = append(crow, fmtCount(series[i][ci].comparisons))
		}
		timeRep.Rows = append(timeRep.Rows, trow)
		cmpRep.Rows = append(cmpRep.Rows, crow)
	}
	return []*Report{timeRep, cmpRep}
}

// Fig4 regenerates Fig. 4a/4b: movie dataset, cumulative cost vs |O|.
func Fig4(o Options) []*Report {
	reps := progressive("movie", nil, o)
	reps[0].ID, reps[1].ID = "fig4a", "fig4b"
	return reps
}

// Fig5 regenerates Fig. 5a/5b: publication dataset, cumulative cost vs |O|.
func Fig5(o Options) []*Report {
	reps := progressive("publication", nil, o)
	reps[0].ID, reps[1].ID = "fig5a", "fig5b"
	return reps
}

// dimsSweep is the Fig. 6 / Fig. 7 driver: total cost for d ∈ {2, 3, 4}.
func dimsSweep(dsName string, o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset(dsName)
	dims := []int{2, 3, 4}
	timeRep := &Report{
		Title:   fmt.Sprintf("cumulative execution time (ms) by dimensions, %s, |O|=%d, |C|=%d, h=%.2f", dsName, len(ds.Objects), len(ds.Users), o.H),
		Columns: []string{"d"},
	}
	cmpRep := &Report{
		Title:   fmt.Sprintf("object comparisons by dimensions, %s, |O|=%d, |C|=%d, h=%.2f", dsName, len(ds.Objects), len(ds.Users), o.H),
		Columns: []string{"d"},
	}
	var names []string
	cells := map[string][2]string{}
	for _, d := range dims {
		for _, spec := range appendOnlyEngines(dsName, ds.Users, d, o) {
			o.logf("%s: running %s at d=%d ...", dsName, spec.name, d)
			str := object.NewStream(ds.Objects, len(ds.Objects), d)
			m := runCheckpoints(spec, str, []int{len(ds.Objects)})
			cells[fmt.Sprintf("%s/%d", spec.name, d)] = [2]string{fmtMS(m[0].millis), fmtCount(m[0].comparisons)}
			if d == dims[0] {
				names = append(names, spec.name)
			}
		}
	}
	timeRep.Columns = append(timeRep.Columns, names...)
	cmpRep.Columns = append(cmpRep.Columns, names...)
	for _, d := range dims {
		trow := []string{fmtInt(d)}
		crow := []string{fmtInt(d)}
		for _, n := range names {
			c := cells[fmt.Sprintf("%s/%d", n, d)]
			trow = append(trow, c[0])
			crow = append(crow, c[1])
		}
		timeRep.Rows = append(timeRep.Rows, trow)
		cmpRep.Rows = append(cmpRep.Rows, crow)
	}
	return []*Report{timeRep, cmpRep}
}

// Fig6 regenerates Fig. 6a/6b: movie dataset, cost vs d.
func Fig6(o Options) []*Report {
	reps := dimsSweep("movie", o)
	reps[0].ID, reps[1].ID = "fig6a", "fig6b"
	return reps
}

// Fig7 regenerates Fig. 7a/7b: publication dataset, cost vs d.
func Fig7(o Options) []*Report {
	reps := dimsSweep("publication", o)
	reps[0].ID, reps[1].ID = "fig7a", "fig7b"
	return reps
}

// frontiers gathers every user's final frontier from an engine.
func frontiers(eng engine, users int) [][]int {
	out := make([][]int, users)
	for c := 0; c < users; c++ {
		ids := eng.UserFrontier(c)
		sort.Ints(ids)
		out[c] = ids
	}
	return out
}

// Table11 regenerates Table 11: precision / recall / F-measure of
// FilterThenVerifyApprox against the exact frontiers while varying the
// branch cut h, on both datasets.
func Table11(o Options) []*Report {
	o = o.withDefaults()
	rep := &Report{
		ID:      "table11",
		Title:   fmt.Sprintf("accuracy of FilterThenVerifyApprox, d=%d, θ1=%d, θ2=%.2f", o.Dims, o.Theta1, o.Theta2),
		Columns: []string{"dataset", "|O|", "h", "precision", "recall", "F-measure"},
	}
	for _, dsName := range []string{"movie", "publication"} {
		ds := o.dataset(dsName)
		users := projectUsers(ds.Users, o.Dims)

		// Ground truth once per dataset.
		o.logf("%s: computing exact frontiers ...", dsName)
		exact := appendOnlyEngines(dsName, ds.Users, o.Dims, o)[0]
		exEng := exact.build(&stats.Counters{})
		str := object.NewStream(ds.Objects, len(ds.Objects), o.Dims)
		for {
			obj, ok := str.Next()
			if !ok {
				break
			}
			exEng.Process(obj)
		}
		truth := frontiers(exEng, len(users))

		for _, h := range o.Hs {
			o.logf("%s: FTVA at h=%.2f ...", dsName, h)
			oh := o
			oh.H = h
			spec := appendOnlyEngines(dsName, ds.Users, o.Dims, oh)[2]
			eng := spec.build(&stats.Counters{})
			str.Reset()
			for {
				obj, ok := str.Next()
				if !ok {
					break
				}
				eng.Process(obj)
			}
			acc := accuracy.Evaluate(truth, frontiers(eng, len(users)))
			rep.Rows = append(rep.Rows, []string{
				dsName, fmtInt(len(ds.Objects)), fmtFloat(h),
				fmtPct(acc.Precision()), fmtPct(acc.Recall()), fmtPct(acc.F1()),
			})
		}
	}
	return []*Report{rep}
}

// windowSweep is the Fig. 8 / Fig. 9 driver: cumulative cost of the three
// window engines at each window size over a replayed stream.
func windowSweep(dsName string, o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset(dsName)
	timeRep := &Report{
		Title:   fmt.Sprintf("cumulative execution time (ms) by window size, %s stream, N=%d, |C|=%d, d=%d, h=%.2f", dsName, o.StreamN, len(ds.Users), o.Dims, o.H),
		Columns: []string{"W"},
	}
	cmpRep := &Report{
		Title:   fmt.Sprintf("object comparisons by window size, %s stream, N=%d, |C|=%d, d=%d, h=%.2f", dsName, o.StreamN, len(ds.Users), o.Dims, o.H),
		Columns: []string{"W"},
	}
	var names []string
	cells := map[string][2]string{}
	for wi, w := range o.Windows {
		for _, spec := range windowEngines(dsName, ds.Users, o.Dims, w, o) {
			o.logf("%s: running %s at W=%d ...", dsName, spec.name, w)
			str := object.NewStream(ds.Objects, o.StreamN, o.Dims)
			m := runCheckpoints(spec, str, []int{o.StreamN})
			cells[fmt.Sprintf("%s/%d", spec.name, w)] = [2]string{fmtMS(m[0].millis), fmtCount(m[0].comparisons)}
			if wi == 0 {
				names = append(names, spec.name)
			}
		}
	}
	timeRep.Columns = append(timeRep.Columns, names...)
	cmpRep.Columns = append(cmpRep.Columns, names...)
	for _, w := range o.Windows {
		trow := []string{fmtInt(w)}
		crow := []string{fmtInt(w)}
		for _, n := range names {
			c := cells[fmt.Sprintf("%s/%d", n, w)]
			trow = append(trow, c[0])
			crow = append(crow, c[1])
		}
		timeRep.Rows = append(timeRep.Rows, trow)
		cmpRep.Rows = append(cmpRep.Rows, crow)
	}
	return []*Report{timeRep, cmpRep}
}

// Fig8 regenerates Fig. 8a/8b: movie stream, cost vs W.
func Fig8(o Options) []*Report {
	reps := windowSweep("movie", o)
	reps[0].ID, reps[1].ID = "fig8a", "fig8b"
	return reps
}

// Fig9 regenerates Fig. 9a/9b: publication stream, cost vs W.
func Fig9(o Options) []*Report {
	reps := windowSweep("publication", o)
	reps[0].ID, reps[1].ID = "fig9a", "fig9b"
	return reps
}

// windowDims is the Fig. 10 / Fig. 11 driver: window engines at the
// largest window while varying d.
func windowDims(dsName string, o Options) []*Report {
	o = o.withDefaults()
	ds := o.dataset(dsName)
	w := o.Windows[len(o.Windows)-1]
	timeRep := &Report{
		Title:   fmt.Sprintf("cumulative execution time (ms) by dimensions, %s stream, N=%d, W=%d, h=%.2f", dsName, o.StreamN, w, o.H),
		Columns: []string{"d"},
	}
	cmpRep := &Report{
		Title:   fmt.Sprintf("object comparisons by dimensions, %s stream, N=%d, W=%d, h=%.2f", dsName, o.StreamN, w, o.H),
		Columns: []string{"d"},
	}
	dims := []int{2, 3, 4}
	var names []string
	cells := map[string][2]string{}
	for _, d := range dims {
		for _, spec := range windowEngines(dsName, ds.Users, d, w, o) {
			o.logf("%s: running %s at d=%d W=%d ...", dsName, spec.name, d, w)
			str := object.NewStream(ds.Objects, o.StreamN, d)
			m := runCheckpoints(spec, str, []int{o.StreamN})
			cells[fmt.Sprintf("%s/%d", spec.name, d)] = [2]string{fmtMS(m[0].millis), fmtCount(m[0].comparisons)}
			if d == dims[0] {
				names = append(names, spec.name)
			}
		}
	}
	timeRep.Columns = append(timeRep.Columns, names...)
	cmpRep.Columns = append(cmpRep.Columns, names...)
	for _, d := range dims {
		trow := []string{fmtInt(d)}
		crow := []string{fmtInt(d)}
		for _, n := range names {
			c := cells[fmt.Sprintf("%s/%d", n, d)]
			trow = append(trow, c[0])
			crow = append(crow, c[1])
		}
		timeRep.Rows = append(timeRep.Rows, trow)
		cmpRep.Rows = append(cmpRep.Rows, crow)
	}
	return []*Report{timeRep, cmpRep}
}

// Fig10 regenerates Fig. 10a/10b: movie stream, cost vs d at W=max.
func Fig10(o Options) []*Report {
	reps := windowDims("movie", o)
	reps[0].ID, reps[1].ID = "fig10a", "fig10b"
	return reps
}

// Fig11 regenerates Fig. 11a/11b: publication stream, cost vs d at W=max.
func Fig11(o Options) []*Report {
	reps := windowDims("publication", o)
	reps[0].ID, reps[1].ID = "fig11a", "fig11b"
	return reps
}

// Table12 regenerates Table 12: accuracy of FilterThenVerifyApproxSW vs
// BaselineSW final alive frontiers, varying W and h.
func Table12(o Options) []*Report {
	o = o.withDefaults()
	rep := &Report{
		ID:      "table12",
		Title:   fmt.Sprintf("accuracy of FilterThenVerifyApproxSW, N=%d, d=%d, θ1=%d, θ2=%.2f", o.StreamN, o.Dims, o.Theta1, o.Theta2),
		Columns: []string{"dataset", "W", "h", "precision", "recall", "F-measure"},
	}
	for _, dsName := range []string{"movie", "publication"} {
		ds := o.dataset(dsName)
		users := projectUsers(ds.Users, o.Dims)
		for _, w := range o.Windows {
			// Ground truth per window size.
			o.logf("%s: BaselineSW truth at W=%d ...", dsName, w)
			ex := windowEngines(dsName, ds.Users, o.Dims, w, o)[0].build(&stats.Counters{})
			str := object.NewStream(ds.Objects, o.StreamN, o.Dims)
			for {
				obj, ok := str.Next()
				if !ok {
					break
				}
				ex.Process(obj)
			}
			truth := frontiers(ex, len(users))
			for _, h := range o.Hs {
				o.logf("%s: FTVA-SW at W=%d h=%.2f ...", dsName, w, h)
				oh := o
				oh.H = h
				spec := windowEngines(dsName, ds.Users, o.Dims, w, oh)[2]
				eng := spec.build(&stats.Counters{})
				str.Reset()
				for {
					obj, ok := str.Next()
					if !ok {
						break
					}
					eng.Process(obj)
				}
				acc := accuracy.Evaluate(truth, frontiers(eng, len(users)))
				rep.Rows = append(rep.Rows, []string{
					dsName, fmtInt(w), fmtFloat(h),
					fmtPct(acc.Precision()), fmtPct(acc.Recall()), fmtPct(acc.F1()),
				})
			}
		}
	}
	return []*Report{rep}
}

// All maps experiment ids to their runners.
var All = map[string]func(Options) []*Report{
	"fig4": Fig4, "fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
	"table11": Table11,
	"fig8":    Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
	"table12":  Table12,
	"parallel": Parallel,
}

// Order lists experiment ids in the paper's order, then the parallel
// sweep beyond it.
var Order = []string{"fig4", "fig5", "fig6", "fig7", "table11", "fig8", "fig9", "fig10", "fig11", "table12", "parallel"}
