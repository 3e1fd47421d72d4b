package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	paretomon "repro"
	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/pref"
)

// communitySeed pins the community and the stream's long-range order:
// the users, their preferences, the object catalogue and which of its
// objects arrive in which stretch of the stream are the same on every
// run, so clustering (all of set-up) never varies and the frontiers grow
// along the same path. -seed shuffles the arrivals of the timed phase
// inside every block of seedBlock objects; the warm-up prefix, while the
// frontiers are small and one early dominator prunes everything after it,
// arrives in pinned order. A free shuffle of the whole stream moves
// comparisons per object by ±8 % from seed to seed, which would drown
// both the exact counter and every timing bound.
const (
	communitySeed = 1
	seedBlock     = 256
)

// prefOp is one scheduled AddPreference or RetractPreference of
// window_mix, in dataset ids.
type prefOp struct {
	user, dim     int
	better, worse int
	retract       bool
}

// mixOps is what window_mix does after ingesting one batch, besides its
// reads: at most one preference update and one object removal.
type mixOps struct {
	pref   *prefOp
	remove int // stream index of the object to remove, -1 for none
}

// inputs is everything a run needs, built before any timing.
type inputs struct {
	sp       *spec
	ds       *datagen.Dataset
	attrs    []string
	profiles []*pref.Profile // the community's profiles, on ds.Domains
	com      *paretomon.Community

	objs   []paretomon.Object // the stream, named o<index>
	eobjs  []object.Object    // the same stream interned, ID = stream index
	bodies [][]byte           // single_wal: one encoded POST /objects body per object
	warm   int                // leading requests that are warm-up
	reqs   int                // total requests, warm-up included

	ops    []mixOps // window_mix only, one per request
	sample []int    // the oracle's users
	subs   []int    // users with a subscription
}

func userName(i int) string   { return fmt.Sprintf("u%d", i) }
func objectName(i int) string { return fmt.Sprintf("o%d", i) }

// spread picks n of total indices, evenly spaced.
func spread(n, total int) []int {
	if n > total {
		n = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * total / n
	}
	return out
}

// buildInputs generates the pinned community and the seeded stream.
// timedReqs is the number of requests in the timed phase.
func buildInputs(sp *spec, users int, seed int64, timedReqs int) (*inputs, error) {
	cfg := datagen.Movie().Scaled(sp.catalogue, users)
	cfg.Seed = communitySeed
	ds := datagen.Generate(cfg)
	in := &inputs{sp: sp, ds: ds, profiles: ds.Users}
	for _, d := range ds.Domains {
		in.attrs = append(in.attrs, d.Name())
	}

	if sp.mix {
		in.profiles = assertedProfiles(ds)
	}
	com, err := community(in.attrs, ds, in.profiles)
	if err != nil {
		return nil, err
	}
	in.com = com

	in.warm = max(timedReqs/20, sp.warmReqs)
	in.reqs = in.warm + timedReqs
	n := in.reqs * sp.batch
	if n > sp.catalogue {
		return nil, fmt.Errorf("stream of %d objects exceeds the %d-object catalogue; lower -seconds or -scale", n, sp.catalogue)
	}
	perm := rand.New(rand.NewSource(communitySeed)).Perm(sp.catalogue)[:n]
	rng := rand.New(rand.NewSource(seed))
	for lo := in.warm * sp.batch; lo < n; lo += seedBlock {
		blk := perm[lo:min(lo+seedBlock, n)]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	in.objs = make([]paretomon.Object, n)
	in.eobjs = make([]object.Object, n)
	for i, c := range perm {
		o := ds.Objects[c]
		vals := make([]string, len(o.Attrs))
		for d, v := range o.Attrs {
			vals[d] = ds.Domains[d].Value(int(v))
		}
		in.objs[i] = paretomon.Object{Name: objectName(i), Values: vals}
		// A copy allocated in arrival order, as Monitor.intern makes one:
		// frontier scans chase these pointers, and the catalogue's own
		// arrays lie scattered in catalogue order.
		in.eobjs[i] = object.Object{ID: i, Attrs: append([]int32(nil), o.Attrs...)}
		if sp.postBodies {
			b, err := json.Marshal(echoObject{Name: in.objs[i].Name, Values: vals})
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
		}
	}

	in.sample = spread(8, users)
	in.subs = spread(sp.subscribers, users)
	if sp.mix {
		in.ops = scheduleMix(in, rng)
	}
	return in, nil
}

func (in *inputs) batch(i int) []paretomon.Object {
	return in.objs[i*in.sp.batch : (i+1)*in.sp.batch]
}

func (in *inputs) ebatch(i int) []object.Object {
	return in.eobjs[i*in.sp.batch : (i+1)*in.sp.batch]
}

// community rebuilds dataset profiles as a public Community: every
// Hasse tuple becomes one Prefer call.
func community(attrs []string, ds *datagen.Dataset, profiles []*pref.Profile) (*paretomon.Community, error) {
	com := paretomon.NewCommunity(paretomon.NewSchema(attrs...))
	for i, p := range profiles {
		u, err := com.AddUser(userName(i))
		if err != nil {
			return nil, err
		}
		for d, attr := range attrs {
			dom := ds.Domains[d]
			for _, e := range p.Relation(d).HasseTuples() {
				if err := u.Prefer(attr, dom.Value(e.Better), dom.Value(e.Worse)); err != nil {
					return nil, err
				}
			}
		}
	}
	return com, nil
}

// assertedProfiles rebuilds the dataset's profiles the way a Monitor holds
// them: every Hasse tuple asserted through Add. The generator fills its
// relations' closures directly and records no assertions, and a relation
// without them loses everything on its first Remove; the copies that
// window_mix's schedule and oracle retract from need the same base the
// monitor retracts from.
func assertedProfiles(ds *datagen.Dataset) []*pref.Profile {
	out := make([]*pref.Profile, len(ds.Users))
	for u, p := range ds.Users {
		q := pref.NewProfile(ds.Domains)
		for d := range ds.Domains {
			for _, e := range p.Relation(d).HasseTuples() {
				if err := q.Relation(d).Add(e.Better, e.Worse); err != nil {
					panic(fmt.Sprintf("bench: a partial order's own Hasse tuple was rejected: %v", err))
				}
			}
		}
		out[u] = q
	}
	return out
}

// Cadence of window_mix's lifecycle writes, in batches, and how many
// added tuples stay in force before the oldest is retracted again: a
// rolling retraction keeps the workload stationary and exercises both
// directions on every run.
const (
	mixPrefEvery    = 8
	mixRemoveEvery  = 16
	mixOutstanding  = 16
	mixRemoveMinAge = 50
	mixRemoveSpan   = 300 // max age = min + span < window, and < mixRemoveEvery batches
)

// scheduleMix lays out window_mix's lifecycle writes. A preference update
// asserts a pair of values the user had left unrelated, found by trial on
// a shadow copy of the user's relation that the schedule keeps in step
// with the monitor's, so every update is valid when its turn comes; once
// mixOutstanding updates are in force, every other one retracts the
// oldest.
func scheduleMix(in *inputs, rng *rand.Rand) []mixOps {
	ops := make([]mixOps, in.reqs)
	shadow := map[int]*pref.Profile{}
	var outstanding []prefOp
	nextUser := 0
	for b := range ops {
		ops[b].remove = -1
		if b%mixPrefEvery == mixPrefEvery-1 {
			if len(outstanding) == mixOutstanding {
				op := outstanding[0]
				outstanding = outstanding[1:]
				op.retract = true
				if err := shadow[op.user].Relation(op.dim).Remove(op.better, op.worse); err != nil {
					panic(fmt.Sprintf("bench: shadow relation lost an asserted tuple: %v", err))
				}
				ops[b].pref = &op
			} else if op, ok := newPreference(in, shadow, nextUser%len(in.profiles), rng); ok {
				nextUser++
				outstanding = append(outstanding, op)
				ops[b].pref = &op
			}
		}
		if b%mixRemoveEvery == mixRemoveEvery-1 {
			last := (b+1)*in.sp.batch - 1
			if age := mixRemoveMinAge + rng.Intn(mixRemoveSpan); age <= last {
				ops[b].remove = last - age
			}
		}
	}
	return ops
}

// newPreference finds, and applies to the shadow, a tuple user u can add.
func newPreference(in *inputs, shadow map[int]*pref.Profile, u int, rng *rand.Rand) (prefOp, bool) {
	if shadow[u] == nil {
		shadow[u] = in.profiles[u].Clone()
	}
	for try := 0; try < 64; try++ {
		d := rng.Intn(len(in.attrs))
		rel := shadow[u].Relation(d)
		size := in.ds.Domains[d].Size()
		x, y := rng.Intn(size), rng.Intn(size)
		if x == y || rel.Has(x, y) || !rel.CanAdd(x, y) {
			continue
		}
		if err := rel.Add(x, y); err != nil {
			continue
		}
		return prefOp{user: u, dim: d, better: x, worse: y}, true
	}
	return prefOp{}, false
}
