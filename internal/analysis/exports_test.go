package analysis_test

import (
	"go/ast"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// keptExports are exported names of internal packages that no program
// path calls but that tests use as references or observers. Each
// entry names the test that needs it.
var keptExports = map[string]string{
	"bitset.FromSlice":                    "TestOrAndAndNot",
	"bitset.Set.CopyFrom":                 "TestCopyFrom",
	"bitset.Set.Min":                      "TestMin",
	"bitset.Set.Slice":                    "TestQuickSetMatchesMap",
	"core.Monitor":                        "TestStateRoundTripFTV",
	"core.NewBaseline":                    "TestBaselinePaperExample",
	"core.Frontier.Clone":                 "TestFrontierAgainstModel",
	"core.MemberIndex.Targets":            "TestBaselinePaperExample",
	"core.ClusterShard.ClusterFrontier":   "TestFilterThenVerifyPaperExample",
	"core.ClusterShard.CheckMemberTable":  "TestShortcutsMatchReference",
	"core.Sharded.TargetSpans":            "TestWindowedStateIsBounded",
	"order.Relation.Comparability":        "TestGeneratedRelationsRegime",
	"order.Relation.DistFromMaximal":      "TestWeightsCacheFollowsMutations",
	"order.Relation.Height":               "TestGeneratedRelationsRegime",
	"order.Relation.IsStrictPartialOrder": "TestGeneratedRelationsAreSPOs",
	"order.Relation.Maximal":              "TestMaximalAndWeights",
	"order.Relation.TuplesByValue":        "TestExample44CommonRelations",
	"order.Relation.Weight":               "TestWeightsCacheFollowsMutations",
	"order.Relation.WeightedSize":         "TestWeightedSize",
	"partition.Plan.Partitions":           "TestPlanDeterminism",
	"partition.Router.LeaseEpoch":         "TestRouterLeaseMutualExclusion",
	"partition.Router.Migrate":            "TestRoutedSim",
	"pref.Profile.Size":                   "TestGeneratedRelationsAreSPOs",
	"server.Server.ActiveFeeds":           "TestCloseEndsWALLongPoll",
	"telemetry.Counter.Value":             "TestConcurrentRecording",
	"telemetry.Gauge.Set":                 "TestCounterGauge",
	"tenant.WithClock":                    "TestQuotaRequestRate",
	"window.FilterThenVerifySW.Buffer":    "TestRemoveObjectOutsideFrontierReadmitsItsEvictees",
}

// unscanned are the internal packages that serve tests only.
var unscanned = map[string]bool{
	"repro/internal/fixtures":              true,
	"repro/internal/oracle":                true,
	"repro/internal/analysis/analysistest": true,
}

// dynamicMethods are called through interfaces the errors package
// declares inside its functions, which no package scope shows.
var dynamicMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// TestInternalExportsHaveCallers fails when an exported name of an
// internal package has no reference from a non-test file of this module
// or of bench/. Nothing outside the module can import internal/, and
// staticcheck's U1000 sees only unexported names, so API that only
// tests call would otherwise grow unnoticed.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and bench/ from source")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := analysis.Load(filepath.Join(root, "bench"), ".")
	if err != nil {
		t.Fatal(err)
	}
	all := append(slices.Clip(pkgs), bench...)
	used := interfaceMethods(all)
	for _, p := range all {
		markUses(p, used)
	}
	unseen := maps.Clone(keptExports)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") || unscanned[p.Path] {
			continue
		}
		for _, key := range exportedNames(p.Pkg) {
			switch _, kept := keptExports[key]; {
			case !used[key] && !kept:
				t.Errorf("%s: exported, but no non-test file references it; delete it, or add it to keptExports with the test that needs it", key)
			case used[key] && kept:
				t.Errorf("keptExports: %s has a caller now; drop it from the list", key)
			}
			delete(unseen, key)
		}
	}
	for key := range unseen {
		t.Errorf("keptExports: %s names no exported name", key)
	}
}

// exportKey names a package-level object or a method by package,
// receiver and name, so that the copies of a package that separate
// type-checks make compare equal; it is "" for any other object.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	key := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/") + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return key + named.Origin().Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return key + obj.Name()
}

// exportedNames lists the keys of pkg's exported package-level names and
// of the exported methods of its exported types.
func exportedNames(pkg *types.Package) []string {
	var keys []string
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		keys = append(keys, exportKey(obj))
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj {
			for m := range named.Methods() {
				if m.Exported() && !dynamicMethods[m.Name()] {
					keys = append(keys, exportKey(m))
				}
			}
		}
	}
	return keys
}

// markUses marks every name p's files refer to outside the name's own
// declaration.
func markUses(p *analysis.LoadedPackage, used map[string]bool) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = exportKey(p.Info.Defs[fd.Name])
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if key := exportKey(p.Info.Uses[id]); key != self {
						used[key] = true
					}
				}
				return true
			})
		}
	}
}

// interfaceMethods returns the keys of the methods through which a type
// of pkgs implements an interface that pkgs declare, import or spell
// out: the interface calls them (fmt a String, the server a tenant's
// quota Gate) with no reference that names them.
func interfaceMethods(pkgs []*analysis.LoadedPackage) map[string]bool {
	var ifaces []*types.Interface
	seen := map[any]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				add(pkg.Scope().Lookup(name).Type())
			}
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		visit(p.Pkg)
		for _, tv := range p.Info.Types {
			add(tv.Type)
		}
	}
	out := map[string]bool{}
	for _, p := range pkgs {
		for _, name := range p.Pkg.Scope().Names() {
			mset := types.NewMethodSet(types.NewPointer(p.Pkg.Scope().Lookup(name).Type()))
		next:
			for _, it := range ifaces {
				var impl []string
				for m := range it.Methods() {
					sel := mset.Lookup(m.Pkg(), m.Name())
					if sel == nil || shape(sel.Obj().Type()) != shape(m.Type()) {
						continue next
					}
					impl = append(impl, exportKey(sel.Obj()))
				}
				for _, key := range impl {
					out[key] = true
				}
			}
		}
	}
	return out
}

// shape spells a type with package paths and without parameter names,
// so that one type from two type-checks of its package, and a method and
// the interface method it implements, spell alike.
func shape(t types.Type) string {
	sig, ok := t.(*types.Signature)
	if !ok {
		return types.TypeString(t, (*types.Package).Path)
	}
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for v := range tuple.Variables() {
			b.WriteString(shape(v.Type()) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
