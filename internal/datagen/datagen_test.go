package datagen_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/oracle"
	"repro/internal/pref"
)

// small returns a fast config for tests.
func small(mode datagen.Mode) datagen.Config {
	cfg := datagen.Movie()
	if mode == datagen.CountMode {
		cfg = datagen.Publication()
	}
	return cfg.Scaled(400, 40)
}

func TestGenerateShape(t *testing.T) {
	for _, mode := range []datagen.Mode{datagen.RatingMode, datagen.CountMode} {
		cfg := small(mode)
		ds := datagen.Generate(cfg)
		if len(ds.Objects) != cfg.NumObjects {
			t.Fatalf("objects = %d, want %d", len(ds.Objects), cfg.NumObjects)
		}
		if len(ds.Users) != cfg.NumUsers {
			t.Fatalf("users = %d, want %d", len(ds.Users), cfg.NumUsers)
		}
		if len(ds.Domains) != len(cfg.Attrs) {
			t.Fatalf("domains = %d, want %d", len(ds.Domains), len(cfg.Attrs))
		}
		for d, dom := range ds.Domains {
			if dom.Size() != cfg.Attrs[d].DomainSize {
				t.Errorf("domain %s size = %d, want %d", dom.Name(), dom.Size(), cfg.Attrs[d].DomainSize)
			}
		}
		for i, o := range ds.Objects {
			if o.ID != i || len(o.Attrs) != len(cfg.Attrs) {
				t.Fatalf("object %d malformed: %+v", i, o)
			}
			for d, v := range o.Attrs {
				if v < 0 || int(v) >= ds.Domains[d].Size() {
					t.Fatalf("object %d attr %d out of domain: %d", i, d, v)
				}
			}
		}
	}
}

// Every generated preference relation must satisfy the strict-partial-
// order axioms (the product-order construction guarantees it; verify).
func TestGeneratedRelationsAreSPOs(t *testing.T) {
	ds := datagen.Generate(small(datagen.RatingMode))
	for u, p := range ds.Users {
		if p.Size() == 0 {
			t.Errorf("user %d has an empty profile; interactions too sparse", u)
		}
		for d := 0; d < p.Dims(); d++ {
			if err := p.Relation(d).IsStrictPartialOrder(); err != nil {
				t.Fatalf("user %d attr %d: %v", u, d, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := datagen.Generate(small(datagen.RatingMode))
	b := datagen.Generate(small(datagen.RatingMode))
	if len(a.Users) != len(b.Users) {
		t.Fatal("user count differs")
	}
	for i := range a.Objects {
		if !slices.Equal(a.Objects[i].Attrs, b.Objects[i].Attrs) {
			t.Fatalf("object %d differs between runs", i)
		}
	}
	for u := range a.Users {
		if !a.Users[u].Equal(b.Users[u]) {
			t.Fatalf("user %d profile differs between runs", u)
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg := small(datagen.RatingMode)
	a := datagen.Generate(cfg)
	cfg.Seed = 999
	b := datagen.Generate(cfg)
	same := true
	for i := range a.Objects {
		if !slices.Equal(a.Objects[i].Attrs, b.Objects[i].Attrs) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical object tables")
	}
}

// Group structure must be visible to the clustering machinery: two users
// of the same group should on average be more similar than users of
// different groups.
func TestGroupStructureIsClusterable(t *testing.T) {
	cfg := small(datagen.RatingMode)
	cfg.Groups = 4
	cfg.Noise = 0.1
	ds := datagen.Generate(cfg)
	sameSum, sameN, diffSum, diffN := 0.0, 0, 0.0, 0
	for i := 0; i < len(ds.Users); i++ {
		for j := i + 1; j < len(ds.Users); j++ {
			s := cluster.Sim(cluster.Jaccard, ds.Users[i], ds.Users[j])
			if i%cfg.Groups == j%cfg.Groups {
				sameSum += s
				sameN++
			} else {
				diffSum += s
				diffN++
			}
		}
	}
	if sameSum/float64(sameN) <= diffSum/float64(diffN) {
		t.Fatalf("same-group similarity %.4f not above cross-group %.4f",
			sameSum/float64(sameN), diffSum/float64(diffN))
	}
}

// The common relation of a same-group pair should be non-trivial, so the
// filter tier has something to work with.
func TestSameGroupCommonRelationNonEmpty(t *testing.T) {
	cfg := small(datagen.RatingMode)
	cfg.Groups = 4
	cfg.Noise = 0.1
	ds := datagen.Generate(cfg)
	common := pref.Common([]*pref.Profile{ds.Users[0], ds.Users[cfg.Groups]}) // same group
	if common.Size() == 0 {
		t.Fatal("same-group users share no preference tuples")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	datagen.Generate(datagen.Config{})
}

func TestScaled(t *testing.T) {
	cfg := datagen.Movie().Scaled(100, 10)
	if cfg.NumObjects != 100 || cfg.NumUsers != 10 {
		t.Fatalf("Scaled: %+v", cfg)
	}
	// Zero keeps the original value.
	cfg2 := datagen.Movie().Scaled(0, 0)
	if cfg2.NumObjects != 12749 || cfg2.NumUsers != 1000 {
		t.Fatalf("Scaled(0,0): %+v", cfg2)
	}
}

// The generated preference relations must sit in the regime the paper's
// real data exhibits (DESIGN.md §4.1): dense, chain-like per-user orders.
// If a refactor of the generator drifts out of this regime, the
// filter-then-verify speedups silently evaporate — this test pins it.
func TestGeneratedRelationsRegime(t *testing.T) {
	ds := datagen.Generate(datagen.Movie().Scaled(800, 20))
	var compSum float64
	var heightSum, n int
	for _, u := range ds.Users {
		for d := 0; d < u.Dims(); d++ {
			r := u.Relation(d)
			compSum += r.Comparability()
			heightSum += r.Height()
			n++
		}
	}
	if avg := compSum / float64(n); avg < 0.25 {
		t.Errorf("mean comparability %.3f too low: relations too sparse for the paper's regime", avg)
	}
	if avg := float64(heightSum) / float64(n); avg < 5 {
		t.Errorf("mean chain height %.1f too low", avg)
	}
}

// Pareto frontiers of the generated workload stay a small fraction of the
// object count — the property that makes Baseline's per-user work mostly
// cheap rejections and gives the filter tier something to amortize.
func TestGeneratedFrontiersCompact(t *testing.T) {
	ds := datagen.Generate(datagen.Movie().Scaled(800, 10))
	objs := fixtures.Attrs(ds.Objects)
	for c, u := range ds.Users {
		// A generated product order asserts nothing: its tuples are the
		// user's preferences.
		frontier := len(oracle.Frontier(fixtures.Closed(u), objs))
		if frac := float64(frontier) / float64(len(ds.Objects)); frac > 0.25 {
			t.Errorf("user %d: frontier fraction %.2f too large", c, frac)
		}
	}
}
