package paretomon

// Randomized equivalence wall for the sharded ingest path: a sequential
// monitor and a sharded monitor consume one interleaved stream of object
// arrivals and lifecycle traffic (AddUser, RemoveUser, RetractPreference,
// RemoveObject), and every delivery — order and content — plus final
// frontiers and comparison totals must match. The test lives in the
// internal package so it can force both dispatch modes of the sharded
// harness: inline (the single-core default) and async (SPSC rings +
// worker goroutines, the multi-core default). Under -race the async runs
// double as a data-race check on the ring hand-off.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// propertyCatalog is the attribute catalog for the randomized workload.
// Preference tuples are always drawn left-to-right from these slices, so
// any set of tuples embeds in a total order and stays acyclic.
var propertyCatalog = [][]string{
	{"Apple", "Lenovo", "Sony", "Toshiba", "Samsung", "Acer"},
	{"single", "dual", "triple", "quad", "octa"},
	{"small", "medium", "large"},
}

var propertyAttrs = []string{"brand", "CPU", "size"}

// randTuple picks an acyclic preference tuple on a random attribute.
func randTuple(r *rand.Rand) Preference {
	a := r.Intn(len(propertyAttrs))
	vals := propertyCatalog[a]
	i := r.Intn(len(vals) - 1)
	j := i + 1 + r.Intn(len(vals)-i-1)
	return Preference{Attr: propertyAttrs[a], Better: vals[i], Worse: vals[j]}
}

func randValues(r *rand.Rand) []string {
	out := make([]string, len(propertyCatalog))
	for a, vals := range propertyCatalog {
		out[a] = vals[r.Intn(len(vals))]
	}
	return out
}

func TestPropertyShardedLifecycleEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"Baseline", []Option{WithAlgorithm(AlgorithmBaseline)}},
		{"BaselineSW", []Option{WithAlgorithm(AlgorithmBaseline), WithWindow(32)}},
		{"FTV", []Option{WithAlgorithm(AlgorithmFilterThenVerify), WithBranchCut(1000)}},
		{"FTV-SW", []Option{WithAlgorithm(AlgorithmFilterThenVerify), WithBranchCut(1000), WithWindow(32)}},
	}
	for _, tc := range cases {
		for _, async := range []bool{false, true} {
			name := tc.name + "/inline"
			if async {
				name = tc.name + "/async"
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(7))
				s := NewSchema(propertyAttrs...)
				com := NewCommunity(s)
				type userState struct {
					name   string
					tuples []Preference
				}
				var users []*userState
				for i := 0; i < 8; i++ {
					u, err := com.AddUser(fmt.Sprintf("u%02d", i))
					if err != nil {
						t.Fatal(err)
					}
					st := &userState{name: u.Name()}
					for k := 0; k < 3+r.Intn(4); k++ {
						p := randTuple(r)
						if u.Prefers(p.Attr, p.Better, p.Worse) {
							continue
						}
						if err := u.Prefer(p.Attr, p.Better, p.Worse); err != nil {
							t.Fatal(err)
						}
						st.tuples = append(st.tuples, p)
					}
					users = append(users, st)
				}

				seq, err := NewMonitor(com, append(tc.opts, WithWorkers(1))...)
				if err != nil {
					t.Fatal(err)
				}
				par, err := NewMonitor(com, append(tc.opts, WithWorkers(4))...)
				if err != nil {
					t.Fatal(err)
				}
				defer seq.Close()
				defer par.Close()
				if async && par.eng.Shards() < 2 {
					t.Fatalf("WithWorkers(4) built %d shard(s)", par.eng.Shards())
				}
				par.eng.SetAsync(async)

				// both applies one mutation to both monitors and insists they
				// agree on the outcome, error or not.
				both := func(what string, op func(m *Monitor) (any, error)) any {
					vs, errS := op(seq)
					vp, errP := op(par)
					if (errS == nil) != (errP == nil) {
						t.Fatalf("%s: sequential err=%v, sharded err=%v", what, errS, errP)
					}
					if errS == nil && !reflect.DeepEqual(vs, vp) {
						t.Fatalf("%s: sequential %v vs sharded %v", what, vs, vp)
					}
					return vs
				}

				var alive []string // removable object names
				nextObj, nextUser := 0, 8
				for step := 0; step < 300; step++ {
					switch k := r.Float64(); {
					case k < 0.55: // single arrival
						name := fmt.Sprintf("o%04d", nextObj)
						nextObj++
						values := randValues(r)
						both("Add "+name, func(m *Monitor) (any, error) {
							return m.Add(name, values...)
						})
						alive = append(alive, name)
					case k < 0.70: // batch arrival
						batch := make([]Object, 1+r.Intn(12))
						for i := range batch {
							batch[i] = Object{Name: fmt.Sprintf("o%04d", nextObj), Values: randValues(r)}
							nextObj++
							alive = append(alive, batch[i].Name)
						}
						both(fmt.Sprintf("AddBatch %d", len(batch)), func(m *Monitor) (any, error) {
							return m.AddBatch(batch)
						})
					case k < 0.78: // user joins mid-stream
						st := &userState{name: fmt.Sprintf("u%02d", nextUser)}
						nextUser++
						for len(st.tuples) < 1+r.Intn(4) {
							p := randTuple(r)
							dup := false
							for _, q := range st.tuples {
								if q == p {
									dup = true
								}
							}
							if !dup {
								st.tuples = append(st.tuples, p)
							}
						}
						both("AddUser "+st.name, func(m *Monitor) (any, error) {
							return nil, m.AddUser(st.name, st.tuples)
						})
						users = append(users, st)
					case k < 0.85 && len(users) > 2: // user leaves
						i := r.Intn(len(users))
						st := users[i]
						users = append(users[:i], users[i+1:]...)
						both("RemoveUser "+st.name, func(m *Monitor) (any, error) {
							return nil, m.RemoveUser(st.name)
						})
					case k < 0.92: // preference retraction
						var withPrefs []*userState
						for _, st := range users {
							if len(st.tuples) > 0 {
								withPrefs = append(withPrefs, st)
							}
						}
						if len(withPrefs) == 0 {
							continue
						}
						st := withPrefs[r.Intn(len(withPrefs))]
						i := r.Intn(len(st.tuples))
						p := st.tuples[i]
						st.tuples = append(st.tuples[:i], st.tuples[i+1:]...)
						both(fmt.Sprintf("Retract %s %v", st.name, p), func(m *Monitor) (any, error) {
							return nil, m.RetractPreference(st.name, p.Attr, p.Better, p.Worse)
						})
					default: // object deletion
						if len(alive) == 0 {
							continue
						}
						i := r.Intn(len(alive))
						name := alive[i]
						alive = append(alive[:i], alive[i+1:]...)
						both("RemoveObject "+name, func(m *Monitor) (any, error) {
							return nil, m.RemoveObject(name)
						})
					}
				}

				for _, st := range users {
					both("Frontier "+st.name, func(m *Monitor) (any, error) {
						return m.Frontier(st.name)
					})
				}
				for _, name := range alive {
					both("TargetsOf "+name, func(m *Monitor) (any, error) {
						return m.TargetsOf(name)
					})
				}
				ss, sp := seq.Stats(), par.Stats()
				if ss.Comparisons != sp.Comparisons || ss.Delivered != sp.Delivered || ss.Processed != sp.Processed {
					t.Fatalf("stats diverge: sequential %+v vs sharded %+v", ss, sp)
				}
			})
		}
	}
}

// TestStatsDuringIngest hammers Stats while objects stream in on another
// goroutine, with the async dispatch engaged. Stats must copy the
// per-shard counter slice under the read lock — before that fix, holding
// a returned Stats across later ingestion raced with the live shard
// counters (caught by -race here).
func TestStatsDuringIngest(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewSchema(propertyAttrs...)
	com := NewCommunity(s)
	for i := 0; i < 6; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			p := randTuple(r)
			if !u.Prefers(p.Attr, p.Better, p.Worse) {
				if err := u.Prefer(p.Attr, p.Better, p.Worse); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m, err := NewMonitor(com, WithAlgorithm(AlgorithmBaseline), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.eng.SetAsync(true)

	const n = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wr := rand.New(rand.NewSource(13))
		for i := 0; i < n; i++ {
			if _, err := m.Add(fmt.Sprintf("o%04d", i), randValues(wr)...); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	var held []Stats
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		st := m.Stats()
		var sum uint64
		for _, sh := range st.Shards {
			sum += sh.Comparisons
		}
		if sum > st.Comparisons {
			t.Fatalf("shard comparisons %d exceed total %d", sum, st.Comparisons)
		}
		if len(held) < 8 {
			held = append(held, st)
		}
	}
	wg.Wait()
	// The held snapshots must be frozen copies: re-reading them after all
	// ingestion finished is race-free and internally consistent.
	for _, st := range held {
		var sum uint64
		for _, sh := range st.Shards {
			sum += sh.Comparisons
		}
		if sum > st.Comparisons {
			t.Fatalf("held snapshot: shard comparisons %d exceed total %d", sum, st.Comparisons)
		}
	}
	if st := m.Stats(); st.Processed != n {
		t.Fatalf("Processed = %d, want %d", st.Processed, n)
	}
}
