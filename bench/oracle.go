package main

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/pref"
)

// The oracle is a definitional checker for the fixed sample of users in
// inputs.sample. It knows nothing of clusters, filters, buffers or
// mending: an arriving object is delivered to a user exactly when no
// alive object dominates it under that user's current preferences, and
// pref.Profile.Dominates is the only engine code it calls. It replays
// the recorder's per-object masks after the timed phase.

// oracleSampleEvery is how often window_mix brute-forces an arrival
// against the whole live window.
const oracleSampleEvery = 97

// checkDeliveries returns how many of the recorded deliveries disagree
// with the definition, with a description of the first.
func checkDeliveries(in *inputs, rec *recorder) (checked, wrong int, first string) {
	if in.sp.window > 0 {
		return checkWindowed(in, rec)
	}
	return checkAppendOnly(in, rec)
}

// checkAppendOnly maintains each sampled user's frontier over the whole
// stream. Dominance is transitive, so an object some earlier object
// dominates is also dominated by a frontier member: comparing against the
// frontier is the definition, not a shortcut.
func checkAppendOnly(in *inputs, rec *recorder) (checked, wrong int, first string) {
	for k, u := range in.sample {
		p := in.profiles[u]
		bit := uint8(1) << k
		var frontier []object.Object
		for i, o := range in.eobjs {
			if !rec.seen[i] {
				continue
			}
			dominated := false
			for _, f := range frontier {
				if p.Dominates(f, o) {
					dominated = true
					break
				}
			}
			checked++
			if got := rec.masks[i]&bit != 0; got == dominated {
				wrong++
				if first == "" {
					first = fmt.Sprintf("object %d, user %s: delivered=%v, dominated=%v", i, userName(u), got, dominated)
				}
			}
			if dominated {
				continue
			}
			keep := frontier[:0]
			for _, f := range frontier {
				if !p.Dominates(o, f) {
					keep = append(keep, f)
				}
			}
			frontier = append(keep, o)
		}
	}
	return checked, wrong, first
}

// checkWindowed replays window_mix's schedule of preference updates and
// removals on its own copies of the sampled profiles, and brute-forces
// every oracleSampleEvery-th arrival against every alive object of the
// window it arrived into.
func checkWindowed(in *inputs, rec *recorder) (checked, wrong int, first string) {
	profiles := make(map[int]*pref.Profile, len(in.sample))
	for _, u := range in.sample {
		profiles[u] = in.profiles[u].Clone()
	}
	removed := make([]bool, len(in.eobjs))
	for b := 0; b < in.reqs; b++ {
		for i := b * in.sp.batch; i < (b+1)*in.sp.batch; i++ {
			if i%oracleSampleEvery != 0 || !rec.seen[i] {
				continue
			}
			o := in.eobjs[i]
			for k, u := range in.sample {
				dominated := false
				// The window holds the last in.sp.window arrivals, o included.
				for j := max(0, i-in.sp.window+1); j < i && !dominated; j++ {
					dominated = !removed[j] && profiles[u].Dominates(in.eobjs[j], o)
				}
				checked++
				if got := rec.masks[i]&(1<<k) != 0; got == dominated {
					wrong++
					if first == "" {
						first = fmt.Sprintf("object %d, user %s: delivered=%v, dominated=%v", i, userName(u), got, dominated)
					}
				}
			}
		}
		ops := in.ops[b]
		if p := ops.pref; p != nil {
			if prof, ok := profiles[p.user]; ok {
				rel := prof.Relation(p.dim)
				apply := rel.Add
				if p.retract {
					apply = rel.Remove
				}
				if err := apply(p.better, p.worse); err != nil {
					return checked, wrong + 1, fmt.Sprintf("oracle could not replay preference update of batch %d: %v", b, err)
				}
			}
		}
		if ops.remove >= 0 {
			removed[ops.remove] = true
		}
	}
	return checked, wrong, first
}
