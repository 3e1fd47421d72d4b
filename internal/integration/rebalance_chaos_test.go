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
