package partition_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// TestRebalanceHandsLockToWaitingWriter: a batch that starts waiting for
// the router's lock inside one migration window of a Rebalance lands
// before the next window starts, in every one of 50 scale-outs — phase C
// hands the lock to a writer already waiting instead of taking it back.
func TestRebalanceHandsLockToWaitingWriter(t *testing.T) {
	com := testCommunity(t, 12)
	for run := range 50 {
		if err := handoffRun(t, com, run); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// handoffRun scales two partitions out to three one user per window, and
// at the first window's first event starts a batch and waits until it
// blocks on the lock; at the second window's first event the batch must
// have landed.
func handoffRun(t *testing.T, com *paretomon.Community, run int) error {
	plan2, _ := partition.NewPlan(2, 0)
	plan3, _ := partition.NewPlan(3, 0)
	var mons []*paretomon.Monitor
	var urls []string
	for i := range 3 {
		sub := com.Subset(func(name string) bool { return plan2.Owner(name) == i })
		if i == 2 {
			sub = com.Subset(func(name string) bool { return plan3.Owner(name) == i })
		}
		mon, err := paretomon.NewMonitor(sub, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
		if err != nil {
			return err
		}
		defer mon.Close()
		hs := httptest.NewServer(server.New(mon))
		defer hs.Close()
		mons, urls = append(mons, mon), append(urls, hs.URL)
	}
	batch := []paretomon.Object{{Name: fmt.Sprintf("w%d", run), Values: []string{"v1", "v2", "v3"}}}
	var (
		imports int
		landed  = -1 // unknown until the second window
		waited  = true
		wrote   = make(chan error, 1)
		rt      *partition.Router
	)
	observe := func(e partition.RebalanceEvent) {
		if e.Phase != "import" {
			return
		}
		switch imports++; imports {
		case 1:
			go func() {
				_, err := rt.AddBatch(batch)
				wrote <- err
			}()
			for deadline := time.Now().Add(5 * time.Second); rt.WaitingWriters() == 0 && waited; {
				waited = time.Now().Before(deadline)
				time.Sleep(50 * time.Microsecond)
			}
		case 2:
			landed = 0
			if mons[0].HasObject(batch[0].Name) {
				landed = 1
			}
		}
	}
	rt = newRouter(t, partition.Config{URLs: urls[:2], Observe: observe})
	defer rt.Close()
	if _, err := rt.Rebalance(context.Background(), urls, partition.RebalanceOptions{BatchSize: 1}); err != nil {
		return fmt.Errorf("Rebalance: %w", err)
	}
	if err := <-wrote; err != nil {
		return fmt.Errorf("the batch: %w", err)
	}
	switch {
	case !waited:
		return fmt.Errorf("the batch never waited for the lock")
	case landed == -1:
		return fmt.Errorf("the Rebalance had %d migration window(s), want two or more", imports)
	case landed == 0:
		return fmt.Errorf("the batch waiting since the first migration window had not landed when the second began")
	}
	return nil
}
