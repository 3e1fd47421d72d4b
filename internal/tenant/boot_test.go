package tenant

import (
	"fmt"
	"testing"

	paretomon "repro"
)

// bootCommunity is one user over two attributes, fresh per monitor.
func bootCommunity(t *testing.T) *paretomon.Community {
	t.Helper()
	com := paretomon.NewCommunity(paretomon.NewSchema("price", "rating"))
	u, err := com.AddUser("u0")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Prefer("price", "low", "high"); err != nil {
		t.Fatal(err)
	}
	return com
}

func bootDataset(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"low", fmt.Sprintf("r%d", i%5)}
	}
	return rows
}

// TestBootIngestResumesAfterRecord: a restart ingests only the rows past
// the recorded prefix, even when boot rows expired or were deleted.
func TestBootIngestResumesAfterRecord(t *testing.T) {
	dir := t.TempDir()
	rows := bootDataset(12)
	mon, err := paretomon.Open(bootCommunity(t), dir, paretomon.WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := BootIngest(mon, rows[:8]); err != nil || n != 8 {
		t.Fatalf("first boot ingested %d, %v; want 8", n, err)
	}
	if err := mon.RemoveObject("o8"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := mon.Add(fmt.Sprintf("live-%d", i), "high", "r0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon, err = paretomon.Open(bootCommunity(t), dir, paretomon.WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if n, err := BootIngest(mon, rows); err != nil || n != 4 {
		t.Fatalf("restart with 4 more rows ingested %d, %v; want 4", n, err)
	}
	if got := mon.ObjectCount(); got != 18 {
		t.Errorf("ObjectCount = %d, want 8 boot + 6 live + 4 new boot", got)
	}
}

// TestBootIngestUnrecordedExpiredStore: a windowed store written before
// the boot record existed, whose boot rows all expired, resumes after
// them rather than ingesting the dataset again.
func TestBootIngestUnrecordedExpiredStore(t *testing.T) {
	dir := t.TempDir()
	rows := bootDataset(6)
	mon, err := paretomon.Open(bootCommunity(t), dir, paretomon.WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]paretomon.Object, len(rows))
	for i, row := range rows {
		batch[i] = paretomon.Object{Name: bootName(i), Values: row}
	}
	if _, err := mon.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := mon.Add(fmt.Sprintf("live-%d", i), "high", "r0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon, err = paretomon.Open(bootCommunity(t), dir, paretomon.WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for i := range rows {
		if mon.HasObject(bootName(i)) {
			t.Fatalf("%s should have expired", bootName(i))
		}
	}
	if n, err := BootIngest(mon, rows); err != nil || n != 0 {
		t.Fatalf("BootIngest ingested %d, %v; want 0", n, err)
	}
	if got := mon.ObjectCount(); got != 11 {
		t.Errorf("ObjectCount = %d, want 11", got)
	}
	if v, ok, err := mon.GetMeta(bootMetaKey); err != nil || !ok || string(v) != "6" {
		t.Errorf("boot record = %q, %v, %v; want 6", v, ok, err)
	}
}
