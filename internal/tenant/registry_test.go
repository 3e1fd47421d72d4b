package tenant

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/telemetry"
)

// inlineSpec is a minimal valid primary spec with an in-config
// community: two attributes, one opinionated user.
func inlineSpec(name string) Spec {
	return Spec{
		Name:   name,
		Schema: []string{"price", "rating"},
		Users: []UserSpec{{
			Name: "u0",
			Preferences: []PrefSpec{
				{Attribute: "price", Better: "low", Worse: "high"},
			},
		}},
	}
}

func mustOpen(t *testing.T, root string, opts ...Option) *Registry {
	t.Helper()
	r, err := Open(root, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", root, err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// mustCreate stands spec up in r.
func mustCreate(t *testing.T, r *Registry, spec Spec) *Tenant {
	t.Helper()
	tn, err := r.Create(spec)
	if err != nil {
		t.Fatalf("create %s: %v", spec.Name, err)
	}
	return tn
}

func TestRegistryCreateGetListDelete(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	mustCreate(t, r, inlineSpec("alpha"))
	mustCreate(t, r, inlineSpec("beta"))
	if _, err := r.Create(inlineSpec("alpha")); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate create: %v, want ErrDuplicateTenant", err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("get unknown: %v, want ErrUnknownTenant", err)
	}
	a, err := r.Get("alpha")
	if err != nil {
		t.Fatalf("get alpha: %v", err)
	}
	if a.Name() != "alpha" || a.Monitor() == nil || a.Router() != nil {
		t.Errorf("alpha shape wrong: %+v", a)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names() = %v", names)
	}
	if err := r.Delete("beta"); err != nil {
		t.Fatalf("delete beta: %v", err)
	}
	if err := r.Delete("beta"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("double delete: %v, want ErrUnknownTenant", err)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "alpha" {
		t.Errorf("Names() after delete = %v", names)
	}
}

// A persistent tenant's state must survive registry restart: the spec
// comes back from tenants.json, the data from its directory.
func TestRegistryReopenRecoversTenants(t *testing.T) {
	root := t.TempDir()
	r := mustOpen(t, root)
	spec := inlineSpec("durable")
	spec.Persist = true
	spec.Token = "tok"
	spec.Quotas.MaxObjects = 10
	tn := mustCreate(t, r, spec)
	if _, err := tn.Monitor().Add("o1", "100", "4.5"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, err := tn.Monitor().Add("o2", "90", "4.0"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r2 := mustOpen(t, root)
	tn2, err := r2.Get("durable")
	if err != nil {
		t.Fatalf("get after reopen: %v", err)
	}
	if got := tn2.Monitor().AliveObjectCount(); got != 2 {
		t.Errorf("recovered objects = %d, want 2", got)
	}
	// Quota accounting must resume from the recovered alive counts, not
	// from zero — otherwise restart would grant a fresh allowance.
	users, objects, _ := tn2.Usage()
	if users != 1 || objects != 2 {
		t.Errorf("recovered usage = (%d users, %d objects), want (1, 2)", users, objects)
	}
	if err := tn2.Authorize("tok"); err != nil {
		t.Errorf("token not recovered: %v", err)
	}
	if s := tn2.Spec(); s.Quotas.MaxObjects != 10 {
		t.Errorf("quotas not recovered: %+v", s.Quotas)
	}
}

func TestRegistryDeleteRemovesDataDir(t *testing.T) {
	root := t.TempDir()
	r := mustOpen(t, root)
	spec := inlineSpec("doomed")
	spec.Persist = true
	mustCreate(t, r, spec)
	dir := r.TenantDir("doomed")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("data dir missing before delete: %v", err)
	}
	if err := r.Delete("doomed"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("data dir survives delete: %v", err)
	}
	r.Close()
	// The record must agree: a reopened registry has no trace.
	r2 := mustOpen(t, root)
	if _, err := r2.Get("doomed"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("deleted tenant resurrected: %v", err)
	}
}

func TestRegistryRotateToken(t *testing.T) {
	root := t.TempDir()
	r := mustOpen(t, root)
	spec := inlineSpec("alpha")
	spec.Token = "old"
	tn := mustCreate(t, r, spec)
	oldSess := tn.SessionContext()

	got, err := r.RotateToken("alpha", "new")
	if err != nil || got != "new" {
		t.Fatalf("rotate: %q, %v", got, err)
	}
	if err := tn.Authorize("old"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("old token still accepted: %v", err)
	}
	if err := tn.Authorize("new"); err != nil {
		t.Errorf("new token refused: %v", err)
	}
	select {
	case <-oldSess.Done():
	case <-time.After(time.Second):
		t.Error("rotation did not cancel the session context")
	}
	if tn.SessionContext().Err() != nil {
		t.Error("fresh session context is already cancelled")
	}

	// Empty token asks the registry to generate one.
	gen, err := r.RotateToken("alpha", "")
	if err != nil || len(gen) != 32 {
		t.Fatalf("generated token %q, %v", gen, err)
	}
	// Rotation is durable: a reopened registry knows only the new token.
	r.Close()
	r2 := mustOpen(t, root)
	tn2, err := r2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn2.Authorize(gen); err != nil {
		t.Errorf("rotated token not persisted: %v", err)
	}

	if _, err := r2.RotateToken("nope", "x"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("rotate unknown: %v", err)
	}
}

// Ensure reconciles declarative config against live state: create the
// missing, overlay token+quotas on the existing, never touch data.
func TestRegistryEnsure(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("alpha")
	spec.Token = "boot"
	created, err := r.Ensure(spec)
	if err != nil || !created {
		t.Fatalf("first ensure: created=%v err=%v", created, err)
	}
	tn, _ := r.Get("alpha")
	if _, err := tn.Monitor().Add("o1", "1", "2"); err != nil {
		t.Fatal(err)
	}

	spec.Token = "rotated"
	spec.Quotas.MaxObjects = 99
	created, err = r.Ensure(spec)
	if err != nil || created {
		t.Fatalf("second ensure: created=%v err=%v", created, err)
	}
	if err := tn.Authorize("rotated"); err != nil {
		t.Errorf("ensure did not adopt config token: %v", err)
	}
	if s := tn.Spec(); s.Quotas.MaxObjects != 99 {
		t.Errorf("ensure did not adopt quotas: %+v", s.Quotas)
	}
	if got := tn.Monitor().AliveObjectCount(); got != 1 {
		t.Errorf("ensure disturbed tenant data: %d objects", got)
	}
}

func TestRegistryClosedRefusesWork(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	mustCreate(t, r, inlineSpec("alpha"))
	r.Close()
	if _, err := r.Get("alpha"); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Get after close: %v", err)
	}
	if _, err := r.Create(inlineSpec("beta")); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Create after close: %v", err)
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Delete after close: %v", err)
	}
}

// A failed tenant build must leave no record behind.
func TestRegistryCreateRollsBackOnFailure(t *testing.T) {
	root := t.TempDir()
	r := mustOpen(t, root)
	bad := Spec{
		Name:       "bad",
		ObjectsCSV: filepath.Join(root, "no-such.csv"),
		PrefsJSON:  filepath.Join(root, "no-such.json"),
	}
	if _, err := r.Create(bad); err == nil {
		t.Fatal("create with missing datasets succeeded")
	}
	if names := r.Names(); len(names) != 0 {
		t.Errorf("failed create left tenants: %v", names)
	}
	r.Close()
	r2 := mustOpen(t, root)
	if names := r2.Names(); len(names) != 0 {
		t.Errorf("failed create persisted: %v", names)
	}
}

func TestRegistryCollectorEmitsPerTenantSeries(t *testing.T) {
	tel := telemetry.NewRegistry()
	r := mustOpen(t, t.TempDir(), WithTelemetry(tel))
	spec := inlineSpec("alpha")
	spec.Persist = true
	tn := mustCreate(t, r, spec)
	if _, err := tn.ReserveObjects([]string{"o1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Monitor().Add("o1", "1", "2"); err != nil {
		t.Fatal(err)
	}
	tn.ReleaseObjects(1)

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`paretomon_tenant_users{tenant="alpha"} 1`,
		`paretomon_tenant_objects{tenant="alpha"} 1`,
		`paretomon_objects_ingested_total{tenant="alpha"} 1`,
		`paretomon_objects_processed_total{tenant="alpha"} 1`,
		`paretomon_twin_arrivals_total{tenant="alpha"} 0`,
		`paretomon_comparisons_total{phase="filter",tenant="alpha"}`,
		`paretomon_wal_appended_records_total{tenant="alpha"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
}

func TestQuotaObjectsBatchAtomicity(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("alpha")
	spec.Quotas.MaxObjects = 3
	tn := mustCreate(t, r, spec)
	if _, err := tn.ReserveObjects([]string{"o1", "o2"}); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	// Four names against one remaining slot: refused whole, typed, and
	// pointing at the first object over the line.
	_, err := tn.ReserveObjects([]string{"o3", "o4", "o5", "o6"})
	if err == nil {
		t.Fatal("over-quota batch admitted")
	}
	var be *paretomon.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a BatchError", err)
	}
	if be.Index != 1 || be.Object != "o4" {
		t.Errorf("BatchError locates [%d]=%q, want [1]=%q", be.Index, be.Object, "o4")
	}
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("chain of %v does not reach ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "objects" || qe.Limit != 3 {
		t.Errorf("QuotaError = %+v", qe)
	}
	// Atomic refusal: the failed batch reserved nothing.
	if _, objects, _ := usage3(tn); objects != 2 {
		t.Errorf("objects after refused batch = %d, want 2", objects)
	}
	// The remaining slot is still usable, and release works.
	if _, err := tn.ReserveObjects([]string{"o3"}); err != nil {
		t.Fatalf("last slot refused: %v", err)
	}
	_, err = tn.ReserveObjects([]string{"o7"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("single over-quota add: %v", err)
	}
	if _, ok := err.(*paretomon.BatchError); ok {
		t.Error("single-object refusal wrapped in BatchError")
	}
	// A reservation ends when its monitor call returns (here: none was
	// made, as when the call fails).
	tn.ReleaseObjects(1)
	if _, err := tn.ReserveObjects([]string{"o8"}); err != nil {
		t.Errorf("slot not freed by release: %v", err)
	}
}

// TestQuotaObjectsChargeOnlyNewNames: names the monitor holds cost
// nothing — a batch of them is admitted even over the quota — and a
// refused batch is located at its first new name over the line.
func TestQuotaObjectsChargeOnlyNewNames(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("alpha")
	spec.Quotas.MaxObjects = 1
	tn := mustCreate(t, r, spec)
	// Over the quota already, as after max_objects was lowered.
	held := []paretomon.Object{{Name: "o1", Values: []string{"1", "2"}}, {Name: "o2", Values: []string{"2", "1"}}}
	if _, err := tn.Monitor().AddBatch(held); err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"o1", "o2"}, {"o2"}} {
		if n, err := tn.ReserveObjects(names); n != 0 || err != nil {
			t.Errorf("ReserveObjects(%v) of held names = %d, %v; want 0, nil", names, n, err)
		}
	}
	_, err := tn.ReserveObjects([]string{"o1", "o3", "o2"})
	var be *paretomon.BatchError
	if !errors.As(err, &be) || be.Index != 1 || be.Object != "o3" || !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("a new name over the quota: %v, want a BatchError at [1]=o3", err)
	}
}

// TestQuotaObjectsFollowTheMonitor: once its call returns, an admitted
// object is metered by the monitor's alive count, so removal frees its
// slot and so does window expiry. A windowed tenant's usage is capped at
// its window, so a quota of exactly the window never refuses it, while
// one below the window does.
func TestQuotaObjectsFollowTheMonitor(t *testing.T) {
	for _, tc := range []struct{ window, quota, fits int }{
		{2, 3, 10}, {2, 2, 10}, {3, 2, 2},
	} {
		t.Run(fmt.Sprintf("window=%d,max_objects=%d", tc.window, tc.quota), func(t *testing.T) {
			r := mustOpen(t, t.TempDir())
			spec := inlineSpec("alpha")
			spec.Quotas.MaxObjects, spec.Window = tc.quota, tc.window
			tn := mustCreate(t, r, spec)
			add := func(names ...string) error {
				n, err := tn.ReserveObjects(names)
				if err != nil {
					return err
				}
				defer tn.ReleaseObjects(n)
				batch := make([]paretomon.Object, len(names))
				for i, n := range names {
					batch[i] = paretomon.Object{Name: n, Values: []string{"low", "high"}}
				}
				_, err = tn.Monitor().AddBatch(batch)
				return err
			}
			for i := 0; i < 10; i++ {
				err := add(fmt.Sprintf("o%d", i))
				if i < tc.fits && err != nil {
					t.Fatalf("arrival %d: %v", i, err)
				}
				if i >= tc.fits && !errors.Is(err, ErrQuotaExceeded) {
					t.Fatalf("arrival %d past the quota: %v", i, err)
				}
			}
			if tc.fits < 10 {
				return
			}
			if err := add("b0", "b1"); err != nil {
				t.Fatalf("a batch into a full window: %v", err)
			}
			if _, objects, _ := usage3(tn); objects != tc.window {
				t.Errorf("objects = %d, want the window's %d", objects, tc.window)
			}
			if err := tn.Monitor().RemoveObject("b1"); err != nil {
				t.Fatal(err)
			}
			if _, objects, _ := usage3(tn); objects != tc.window-1 {
				t.Errorf("objects after a removal = %d, want %d", objects, tc.window-1)
			}
		})
	}
}

func usage3(t *Tenant) (int, int, int) { return t.Usage() }

func TestQuotaUsers(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("alpha") // ships one user
	spec.Quotas.MaxUsers = 2
	tn := mustCreate(t, r, spec)
	if err := tn.ReserveUser(); err != nil {
		t.Fatalf("second user refused: %v", err)
	}
	err := tn.ReserveUser()
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("third user: %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "users" {
		t.Errorf("QuotaError = %+v", qe)
	}
	tn.UserRemoved()
	if err := tn.ReserveUser(); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
}

func TestQuotaSubscriptions(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("alpha")
	spec.Quotas.MaxSubscriptions = 1
	tn := mustCreate(t, r, spec)
	release, err := tn.ReserveSubscription()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.ReserveSubscription(); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("second stream: %v", err)
	}
	release()
	release() // idempotent: double release must not free a second slot
	release2, err := tn.ReserveSubscription()
	if err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	defer release2()
	if _, err := tn.ReserveSubscription(); !errors.Is(err, ErrQuotaExceeded) {
		t.Error("double release freed a phantom slot")
	}
}

func TestQuotaRequestRate(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := mustOpen(t, t.TempDir(), WithClock(clock))
	spec := inlineSpec("alpha")
	spec.Quotas.MaxRequestsPerSec = 2
	tn := mustCreate(t, r, spec)
	// Burst = rate = 2: two requests pass, the third is refused.
	if err := tn.Admit(); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := tn.Admit(); err != nil {
		t.Fatalf("second: %v", err)
	}
	err := tn.Admit()
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third: %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "rate" {
		t.Errorf("QuotaError = %+v", qe)
	}
	// Half a second refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if err := tn.Admit(); err != nil {
		t.Errorf("after refill: %v", err)
	}
	if err := tn.Admit(); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("bucket not drained: %v", err)
	}
	// An unlimited tenant never waits.
	free := mustCreate(t, r, inlineSpec("free"))
	for i := 0; i < 100; i++ {
		if err := free.Admit(); err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
	}
}

func TestTenantAuthorize(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	spec := inlineSpec("locked")
	spec.Token = "secret"
	locked := mustCreate(t, r, spec)
	if err := locked.Authorize("secret"); err != nil {
		t.Errorf("right token: %v", err)
	}
	if err := locked.Authorize("wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("wrong token: %v", err)
	}
	if err := locked.Authorize(""); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("missing token: %v", err)
	}
	open := mustCreate(t, r, inlineSpec("open"))
	if err := open.Authorize(""); err != nil {
		t.Errorf("open tenant refused empty credential: %v", err)
	}
	if err := open.Authorize("anything"); err != nil {
		t.Errorf("open tenant refused credential: %v", err)
	}
}

func TestRouterTenant(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	tn := mustCreate(t, r, Spec{Name: "edge", Role: RoleRouter, Fleet: []string{"http://a:1", "http://b:2"}})
	if tn.Monitor() != nil || tn.Router() == nil {
		t.Error("router tenant shape wrong")
	}
}

// TestZeroSpecTakesLibraryDefaults pins the engine a spec without engine
// fields builds: the library's defaults (branch cut 0.55, Workers 0 =
// GOMAXPROCS, θ1/θ2 500/0.5), not the serve flags' (3.3, one worker,
// 400/0.5). Specs persisted in tenants.json rebuild under this config,
// so it must not drift.
func TestZeroSpecTakesLibraryDefaults(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	for _, tc := range []struct {
		algorithm string
		theta1    int
		want      paretomon.Config
	}{
		{"", 0, paretomon.Config{Algorithm: paretomon.AlgorithmFilterThenVerify,
			Measure: paretomon.MeasureWeightedJaccard, BranchCut: 0.55, Theta1: 500, Theta2: 0.5}},
		{"ftva", 0, paretomon.Config{Algorithm: paretomon.AlgorithmFilterThenVerifyApprox,
			Measure: paretomon.MeasureVectorWeightedJaccard, BranchCut: 0.55, Theta1: 500, Theta2: 0.5}},
		// θ1 alone brings θ2 = 0.5 with it.
		{"ftva", 7, paretomon.Config{Algorithm: paretomon.AlgorithmFilterThenVerifyApprox,
			Measure: paretomon.MeasureVectorWeightedJaccard, BranchCut: 0.55, Theta1: 7, Theta2: 0.5}},
	} {
		spec := inlineSpec(fmt.Sprintf("t%d", tc.theta1) + tc.algorithm)
		spec.Algorithm, spec.Theta1 = tc.algorithm, tc.theta1
		tn := mustCreate(t, r, spec)
		cfg := tn.Monitor().Config()
		got := paretomon.Config{Algorithm: cfg.Algorithm, Measure: cfg.Measure, BranchCut: cfg.BranchCut,
			Theta1: cfg.Theta1, Theta2: cfg.Theta2, Window: cfg.Window, Workers: cfg.Workers}
		if got != tc.want {
			t.Errorf("%s: config %+v, want %+v", spec.Name, got, tc.want)
		}
	}
}
