package analysis_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// TestRepoInvariants runs the full paretolint suite over this module
// and requires zero findings — the same gate CI applies through
// go vet -vettool, enforced here so a plain `go test ./...` already
// catches an invariant regression.
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	fset := pkgs[0].Fset
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// loadModule type-checks the whole module once for every test that
// needs it.
var loadModule = sync.OnceValues(func() ([]*analysis.LoadedPackage, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return analysis.Load(root, "./...")
})

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
