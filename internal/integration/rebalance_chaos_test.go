package integration_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/partition"
)

// migrateCrashAbort is the sentinel the chaos observer panics with to
// simulate the orchestrating router dying at an exact phase boundary.
type migrateCrashAbort struct{ phase string }

// crashingRouter builds a router whose Observe hook kills the
// orchestration (panic, recovered by the caller) the first time the
// named phase completes — the deterministic stand-in for kill -9'ing
// the router between migration steps.
func crashingRouter(t *testing.T, urls []string, phase string) *partition.Router {
	t.Helper()
	fired := false
	rt, err := partition.New(partition.Config{
		URLs:          urls,
		RetryBudget:   5 * time.Second,
		RetryInterval: 5 * time.Millisecond,
		Observe: func(e partition.RebalanceEvent) {
			if e.Phase == phase && !fired {
				fired = true
				panic(migrateCrashAbort{phase: phase})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// migrateExpectingCrash runs Migrate expecting the observer to abort it
// at the configured phase.
func migrateExpectingCrash(t *testing.T, rt *partition.Router, users []string, from, to int) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("migration completed; the crash hook never fired")
		}
		if _, ok := r.(migrateCrashAbort); !ok {
			panic(r)
		}
	}()
	_ = rt.Migrate(users, from, to)
}

// TestMigrateCrashReconcile kills the orchestrator (deterministically,
// via a panicking observer) at both phase boundaries of a migration and
// asserts a fresh router's Reconcile recovers the fleet to a consistent
// ring: the migration is fully rolled back (crash before the ring
// commit) or rolled forward (crash after), no user is owned by zero or
// two partitions, and the fleet stays frontier-identical to the
// sequential reference.
func TestMigrateCrashReconcile(t *testing.T) {
	cases := []struct {
		name      string
		phase     string // observer phase that kills the orchestrator
		wantOwner int    // owning partition after recovery (0 = rolled back, 1 = rolled forward)
	}{
		// Crash after the import, before the ring commit: the user is held
		// by both partitions and the ring still says the source owns them —
		// Reconcile must delete the destination copy.
		{"pre-commit-rollback", "import", 0},
		// Crash after the ring commit, before the source delete: the ring
		// says the destination owns them and the source holds a stale copy
		// — Reconcile must delete the source copy.
		{"post-commit-rollforward", "commit", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			com := partitionCommunity(t, 20)
			f := startRebalanceFleet(t, com, 2)
			defer f.close()

			objs := partitionStream(30, 5)
			if _, err := f.ref.AddBatch(objs); err != nil {
				t.Fatal(err)
			}
			rtA := crashingRouter(t, f.urls, tc.phase)
			defer rtA.Close()
			if _, err := rtA.AddBatch(objs); err != nil {
				t.Fatal(err)
			}
			victim := ""
			for i := 0; i < 20; i++ {
				if u := fmt.Sprintf("u%d", i); rtA.Owner(u) == 0 {
					victim = u
					break
				}
			}
			migrateExpectingCrash(t, rtA, []string{victim}, 0, 1)

			// The wreckage the crash leaves: the import always landed, so
			// the destination holds a copy; the source's copy survives in
			// both cases (the delete phase never ran).
			holders := 0
			for _, m := range f.mons {
				for _, u := range m.Users() {
					if u == victim {
						holders++
					}
				}
			}
			if holders != 2 {
				t.Fatalf("expected the crash to leave %q dual-held, found %d cop(ies)", victim, holders)
			}

			// A fresh router — the replacement orchestrator — reconciles.
			rtB, err := partition.New(partition.Config{
				URLs:          f.urls,
				RetryBudget:   5 * time.Second,
				RetryInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rtB.Close()
			rec, err := rtB.Reconcile(context.Background())
			if err != nil {
				t.Fatalf("reconcile: %v", err)
			}
			if rec.Removed != 1 || rec.Repinned != 0 {
				t.Fatalf("reconcile report %+v, want exactly the stray copy removed", rec)
			}
			if got := rtB.Owner(victim); got != tc.wantOwner {
				t.Fatalf("after recovery %q is owned by partition %d, want %d", victim, got, tc.wantOwner)
			}
			assertOneOwner(t, f)

			objects := make([]string, len(objs))
			for i := range objs {
				objects[i] = objs[i].Name
			}
			assertFleetIdentity(t, rtB, f, objects, true)

			// And the recovered fleet keeps serving: one more batch lands
			// identically on both sides.
			extra := partitionStream(35, 5)[30:]
			want, err1 := f.ref.AddBatch(extra)
			got, err2 := rtB.AddBatch(extra)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
				t.Fatalf("post-recovery batch: reference %v (%v), router %v (%v)", want, err1, got, err2)
			}
		})
	}
}

// TestRouterCrashMidFlip simulates a router dying halfway through a
// ring commit — the new version pushed to some partitions but not all —
// and asserts the fleet self-heals: a replacement router's first write
// hits the version conflict, refetches the newest ring, pushes it to
// the stragglers, and retries to success.
func TestRouterCrashMidFlip(t *testing.T) {
	com := partitionCommunity(t, 20)
	f := startRebalanceFleet(t, com, 2)
	defer f.close()

	objs := partitionStream(20, 21)
	if _, err := f.ref.AddBatch(objs); err != nil {
		t.Fatal(err)
	}
	rtA, err := partition.New(partition.Config{URLs: f.urls, RetryBudget: 5 * time.Second, RetryInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtA.AddBatch(objs); err != nil {
		t.Fatal(err)
	}
	// Install ring v1 everywhere (a same-topology rebalance bootstraps it).
	if _, err := rtA.Rebalance(context.Background(), f.urls, partition.RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	rtA.Close()

	// The "crashed mid-flip" state: craft the successor ring and push it
	// to partition 0 only.
	cur := rtA.Ring()
	if cur == nil || cur.Version != 1 {
		t.Fatalf("bootstrap ring = %+v, want version 1", cur)
	}
	next, err := partition.NewRing(cur.Version+1, cur.Parts, cur.VNodes, cur.URLs, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, f.urls[0]+"/ring", bytes.NewReader(next.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial ring push: status %d", resp.StatusCode)
	}

	// Replacement router, cold: its first fleet write conflicts (v2 on
	// partition 0, and it carries no version at all), heals, and lands.
	rtB, err := partition.New(partition.Config{URLs: f.urls, RetryBudget: 5 * time.Second, RetryInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rtB.Close()
	extra := partitionStream(25, 21)[20:]
	want, err1 := f.ref.AddBatch(extra)
	got, err2 := rtB.AddBatch(extra)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("post-heal batch: reference %v (%v), router %v (%v)", want, err1, got, err2)
	}
	if rg := rtB.Ring(); rg == nil || rg.Version != 2 {
		t.Fatalf("replacement router ring = %+v, want the half-pushed version 2", rtB.Ring())
	}
	// The straggler partition converged too.
	sresp, err := http.Get(f.urls[1] + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if hdr := sresp.Header.Get("X-Paretomon-Ring"); hdr != "2" {
		t.Fatalf("straggler partition reports ring %q, want 2", hdr)
	}
	objects := make([]string, 0, 25)
	for _, o := range objs {
		objects = append(objects, o.Name)
	}
	for _, o := range extra {
		objects = append(objects, o.Name)
	}
	assertFleetIdentity(t, rtB, f, objects, true)
}

// TestKill9MidMigration is the full-fidelity chaos exercise: real
// paretomon partition processes with durable stores, a SIGKILL of the
// migration source the instant the ring commit lands (the observer
// fires between commit and the source delete), a restart over the same
// data directory, and a Reconcile that must roll the migration forward
// — the ring survived in the store's meta records, so the restarted
// source learns it retired the user. Gated behind
// PARETOMON_CRASH_TEST=1 (the CI crash job sets it).
func TestKill9MidMigration(t *testing.T) {
	if os.Getenv("PARETOMON_CRASH_TEST") != "1" {
		t.Skip("set PARETOMON_CRASH_TEST=1 to run the kill -9 migration exercise")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "paretomon")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/paretomon")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building paretomon: %v\n%s", err, out)
	}

	const nObjects, nUsers = 80, 12
	ds := datagen.Generate(datagen.Movie().Scaled(nObjects, nUsers))
	objPath := filepath.Join(tmp, "objects.csv")
	prefPath := filepath.Join(tmp, "prefs.json")
	var buf bytes.Buffer
	if err := dataset.WriteObjectsCSV(&buf, ds.Domains, ds.Objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := dataset.WriteProfilesJSON(&buf, ds.Users); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// addr may be given to restart an incarnation on the address the
	// committed ring already names; empty picks a fresh port.
	start := func(addr string, extra ...string) (*exec.Cmd, string) {
		t.Helper()
		if addr == "" {
			addr = fmt.Sprintf("127.0.0.1:%d", freePort(t))
		}
		args := append([]string{
			"serve", "-addr", addr,
			"-objects", objPath, "-prefs", prefPath,
			"-algorithm", "baseline", "-limit", fmt.Sprint(nObjects),
		}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting paretomon: %v", err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
				_, _ = cmd.Process.Wait()
			}
		})
		waitReady(t, addr)
		return cmd, addr
	}

	// Two durable partition processes (each boot-replays the full
	// stream against its slice of the community) and the uninterrupted
	// single-monitor reference.
	dir0 := filepath.Join(tmp, "p0")
	proc0, addr0 := start("", "-partition", "0/2", "-data-dir", dir0)
	_, addr1 := start("", "-partition", "1/2", "-data-dir", filepath.Join(tmp, "p1"))
	_, addrRef := start("")
	urls := []string{"http://" + addr0, "http://" + addr1}

	// The orchestrating router: the observer SIGKILLs the source the
	// moment the ring commit completes, so the source retirement
	// (DELETE /users) runs against a dead process and the migration
	// errors out mid-flight.
	killed := false
	rtA, err := partition.New(partition.Config{
		URLs:          urls,
		RetryBudget:   2 * time.Second,
		RetryInterval: 50 * time.Millisecond,
		Observe: func(e partition.RebalanceEvent) {
			if e.Phase == "commit" && !killed {
				killed = true
				_ = proc0.Process.Signal(syscall.SIGKILL)
				_, _ = proc0.Process.Wait()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for i := 0; i < nUsers; i++ {
		if u := fmt.Sprintf("u%d", i); rtA.Owner(u) == 0 {
			victim = u
			break
		}
	}
	if err := rtA.Migrate([]string{victim}, 0, 1); err == nil {
		t.Fatal("migration succeeded despite the source being SIGKILLed mid-flight")
	} else {
		t.Logf("migration failed as expected: %v", err)
	}
	if !killed {
		t.Fatal("the kill hook never fired")
	}

	// Restart the source over the same directory AND the same address —
	// the one the committed ring names. Its store recovered the WAL
	// state and the committed ring (meta record), so it knows the fleet
	// moved on — but it still holds the victim's stale copy.
	_, _ = start(addr0, "-partition", "0/2", "-data-dir", dir0)

	rtB, err := partition.New(partition.Config{URLs: urls, RetryBudget: 5 * time.Second, RetryInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rtB.Close()
	rec, err := rtB.Reconcile(context.Background())
	if err != nil {
		t.Fatalf("reconcile after restart: %v", err)
	}
	if rec.Removed != 1 {
		t.Fatalf("reconcile report %+v, want the stale source copy removed", rec)
	}
	if got := rtB.Owner(victim); got != 1 {
		t.Fatalf("after recovery %q owned by partition %d, want 1 (roll-forward)", victim, got)
	}

	// Exactly-one-owner across the real processes, full community.
	holders := make(map[string]int)
	for _, u := range urls {
		resp, err := http.Get(u + "/users")
		if err != nil {
			t.Fatal(err)
		}
		var list []string
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, name := range list {
			holders[name]++
		}
	}
	if len(holders) != nUsers {
		t.Fatalf("fleet holds %d users, want %d", len(holders), nUsers)
	}
	for name, n := range holders {
		if n != 1 {
			t.Errorf("user %q held by %d partitions", name, n)
		}
	}

	// Frontier identity against the uninterrupted reference, and one
	// post-recovery write that must deliver identically.
	for i := 0; i < nUsers; i++ {
		u := fmt.Sprintf("u%d", i)
		want := getJSON(t, addrRef, "/frontier/"+u)["frontier"]
		got, err := rtB.Frontier(u)
		if err != nil {
			t.Fatalf("frontier(%s): %v", u, err)
		}
		gotAny := make([]any, len(got))
		for j, v := range got {
			gotAny[j] = v
		}
		if want == nil {
			want = []any{}
		}
		if !reflect.DeepEqual(want, gotAny) {
			t.Errorf("frontier(%s): reference %v, fleet %v", u, want, gotAny)
		}
	}
	values := make([]string, len(ds.Domains))
	for d := range ds.Domains {
		values[d] = ds.Domains[d].Value(int(ds.Objects[0].Attrs[d]))
	}
	body, _ := json.Marshal(map[string]any{"name": "post-recovery", "values": values})
	refDelivery := postJSON(t, addrRef, "/objects", body)
	d, err := rtB.Add("post-recovery", values...)
	if err != nil {
		t.Fatalf("post-recovery add: %v", err)
	}
	var refUsers []string
	if arr, ok := refDelivery["users"].([]any); ok {
		for _, v := range arr {
			refUsers = append(refUsers, v.(string))
		}
	}
	sort.Strings(refUsers)
	gotUsers := append([]string(nil), d.Users...)
	sort.Strings(gotUsers)
	if !reflect.DeepEqual(refUsers, gotUsers) {
		t.Fatalf("post-recovery delivery: reference %v, fleet %v", refUsers, gotUsers)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("server on %s never became ready", addr)
}

func getJSON(t *testing.T, addr, path string) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return out
}

func postJSON(t *testing.T, addr, path string, body []byte) map[string]any {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return out
}
