package integration_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestKill9Recovery is the acceptance exercise for the durability
// subsystem against a real process: it builds cmd/paretomon, serves it
// with -data-dir, deletes one boot row, POSTs a stream while SIGKILLing
// the process mid-ingest, restarts it over the same directory, and
// asserts that every user's frontier and the work counters match an
// uninterrupted server fed the identical history. It runs append-only and
// under a window short enough that boot rows expire before the kill: the
// restart must ingest no boot row twice, whether the row was deleted or
// expired. Gated behind PARETOMON_CRASH_TEST=1 (the CI crash job sets it)
// so tier-1 test runs stay hermetic and fast.
func TestKill9Recovery(t *testing.T) {
	if os.Getenv("PARETOMON_CRASH_TEST") != "1" {
		t.Skip("set PARETOMON_CRASH_TEST=1 to run the kill -9 recovery exercise")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "paretomon")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/paretomon")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building paretomon: %v\n%s", err, out)
	}
	for _, window := range []int{0, 32} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			kill9Recovery(t, bin, window)
		})
	}
}

func kill9Recovery(t *testing.T, bin string, window int) {
	tmp := t.TempDir()
	// Dataset on disk: 120 objects, 12 users. The server boot-replays the
	// first 60 rows; the rest arrive over HTTP as the "live" stream.
	ds := datagen.Generate(datagen.Movie().Scaled(120, 12))
	const boot = 60
	const deleted = "o40" // a boot row, still in the window when deleted
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
	// The live stream: rows beyond the boot prefix, posted under x<i>
	// names so they never collide with the boot rows' o<i> names.
	type liveObject struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	var live []liveObject
	for i := boot; i < len(ds.Objects); i++ {
		values := make([]string, len(ds.Domains))
		for d := range ds.Domains {
			values[d] = ds.Domains[d].Value(int(ds.Objects[i].Attrs[d]))
		}
		live = append(live, liveObject{Name: fmt.Sprintf("x%d", i-boot), Values: values})
	}

	dataDir := filepath.Join(tmp, "data")
	start := func(extra ...string) (*exec.Cmd, string) {
		t.Helper()
		port := freePort(t)
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := append([]string{
			"serve", "-addr", addr,
			"-objects", objPath, "-prefs", prefPath,
			"-algorithm", "ftv", "-h", "3.3", "-limit", fmt.Sprint(boot),
			"-window", fmt.Sprint(window),
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

	// Incarnation A: durable server; delete a boot row, then SIGKILL it
	// while the stream is being ingested.
	procA, addrA := start("-data-dir", dataDir, "-snapshot-every", "25")
	deleteObject(t, addrA, deleted)
	kill := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		<-kill
		_ = procA.Process.Signal(syscall.SIGKILL)
		close(killed)
	}()
	acked := 0
	for _, o := range live {
		if acked == 25 {
			// Fire the SIGKILL asynchronously and keep posting: the process
			// dies underneath the stream, possibly mid-request.
			close(kill)
		}
		body, _ := json.Marshal(o)
		resp, err := http.Post("http://"+addrA+"/objects", "application/json", bytes.NewReader(body))
		if err != nil {
			break // the kill landed
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("POST %s: status %d", o.Name, resp.StatusCode)
		}
		resp.Body.Close()
		acked++
	}
	<-killed
	_, _ = procA.Process.Wait()
	if acked < 25 || acked == len(live) {
		t.Fatalf("kill landed outside the ingest window (acked %d of %d)", acked, len(live))
	}

	// Incarnation B: restart over the same data directory. It must hold
	// every acknowledged object (the in-flight one may or may not have
	// landed — it was never acknowledged) and no boot row twice.
	_, addrB := start("-data-dir", dataDir)
	statsB := getJSON(t, addrB, "/stats")
	processed := int(statsB["Processed"].(float64))
	if processed < boot+acked || processed > boot+acked+1 {
		t.Fatalf("restart recovered %d objects; acknowledged %d (+%d boot)", processed, acked, boot)
	}

	// Reference: an uninterrupted, store-less server fed the identical
	// history: the boot rows, the deletion, the prefix of the live stream.
	_, addrC := start()
	deleteObject(t, addrC, deleted)
	for _, o := range live[:processed-boot] {
		body, _ := json.Marshal(o)
		resp, err := http.Post("http://"+addrC+"/objects", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reference POST %s: %v %v", o.Name, err, resp)
		}
		resp.Body.Close()
	}

	statsC := getJSON(t, addrC, "/stats")
	for _, key := range []string{"Comparisons", "FilterComparisons", "VerifyComparisons", "Delivered", "Processed"} {
		if statsB[key] != statsC[key] {
			t.Errorf("stats %s: recovered %v, uninterrupted %v", key, statsB[key], statsC[key])
		}
	}
	for u := 0; u < 12; u++ {
		user := fmt.Sprintf("u%d", u)
		fb := getJSON(t, addrB, "/frontier/"+user)["frontier"]
		fc := getJSON(t, addrC, "/frontier/"+user)["frontier"]
		if !reflect.DeepEqual(fb, fc) {
			t.Errorf("frontier of %s: recovered %v, uninterrupted %v", user, fb, fc)
		}
	}

	// The recovered server keeps serving: one more live object lands
	// identically on both.
	extra, _ := json.Marshal(liveObject{Name: "post-recovery", Values: live[0].Values})
	db := postJSON(t, addrB, "/objects", extra)
	dc := postJSON(t, addrC, "/objects", extra)
	if !reflect.DeepEqual(db["users"], dc["users"]) {
		t.Errorf("post-recovery delivery: %v vs %v", db["users"], dc["users"])
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

func deleteObject(t *testing.T, addr, name string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, "http://"+addr+"/objects/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", name, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", name, resp.StatusCode)
	}
}
