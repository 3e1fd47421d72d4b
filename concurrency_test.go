package paretomon_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	paretomon "repro"
)

// TestConcurrentReadersWithWriter hammers the read API from many
// goroutines while a single writer ingests, proving the RWMutex-backed
// read path under -race. The reads must always observe internally
// consistent state (no panics, no torn lookups).
func TestConcurrentReadersWithWriter(t *testing.T) {
	c := laptopCommunity(t)
	m, err := paretomon.NewMonitor(c,
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithBranchCut(0.01))
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const objects = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			user := []string{"c1", "c2"}[r%2]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Frontier(user); err != nil {
					t.Errorf("Frontier(%s): %v", user, err)
					return
				}
				st := m.Stats()
				if st.Delivered > 0 && st.Processed == 0 {
					t.Error("stats torn: delivered without processed")
					return
				}
				_ = m.Clusters()
				if _, err := m.TargetsOf("ghost"); !errors.Is(err, paretomon.ErrUnknownObject) {
					t.Errorf("TargetsOf(ghost): %v", err)
					return
				}
				// Read C_o in name order while the writer ranks joining users.
				if users, err := m.TargetsOf("obj-0"); err == nil && !sort.StringsAreSorted(users) {
					t.Errorf("TargetsOf(obj-0) = %q, not in name order", users)
					return
				} else if err != nil && !errors.Is(err, paretomon.ErrUnknownObject) {
					t.Errorf("TargetsOf(obj-0): %v", err)
					return
				}
			}
		}(r)
	}

	vocabD := []string{"13-15.9", "10-12.9", "16-18.9", "19-up", "9.9-under"}
	vocabB := []string{"Apple", "Lenovo", "Sony", "Toshiba", "Samsung"}
	vocabC := []string{"single", "dual", "triple", "quad"}
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("obj-%d", i)
		_, err := m.Add(name, vocabD[i%5], vocabB[(i/5)%5], vocabC[(i/25)%4])
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := m.AddPreference("c1", "brand", vocabB[0], vocabB[i/10%4+1]); err != nil &&
				!errors.Is(err, paretomon.ErrCycle) {
				t.Fatal(err)
			}
		}
		if i%50 == 0 {
			if err := m.AddUser(fmt.Sprintf("a%d", i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if st := m.Stats(); st.Processed != objects {
		t.Errorf("processed = %d, want %d", st.Processed, objects)
	}
}

// TestAddBatchMatchesAdd checks that batch ingestion is behaviorally
// identical to one-at-a-time ingestion: same deliveries, same frontiers.
func TestAddBatchMatchesAdd(t *testing.T) {
	single, err := paretomon.NewMonitor(laptopCommunity(t),
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := paretomon.NewMonitor(laptopCommunity(t),
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}

	want := feedTable1(t, single, 16)
	objs := make([]paretomon.Object, len(table1))
	for i, row := range table1 {
		objs[i] = paretomon.Object{Name: row[0], Values: []string{row[1], row[2], row[3]}}
	}
	got, err := batch.AddBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch deliveries = %v, want %v", got, want)
	}
	for _, u := range []string{"c1", "c2"} {
		fs, _ := single.Frontier(u)
		fb, _ := batch.Frontier(u)
		if !reflect.DeepEqual(fb, fs) {
			t.Errorf("frontier(%s): batch %v vs single %v", u, fb, fs)
		}
	}
}

// TestSubscribeDeliveries checks the push path: subscribers receive
// exactly the deliveries targeting their user, in ingestion order, and
// cancellation closes the channel.
func TestSubscribeDeliveries(t *testing.T) {
	c := laptopCommunity(t)
	m, err := paretomon.NewMonitor(c, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	ch2, cancel2, err := m.Subscribe("c2")
	if err != nil {
		t.Fatal(err)
	}
	ch1, cancel1, err := m.Subscribe("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel1()

	feedTable1(t, m, 16) // publication happens before Add returns

	// o15 goes to c2 only (Example 1.1): it must be on c2's channel and
	// absent from c1's.
	var got2 []string
	drain := func(ch <-chan paretomon.Delivery) []string {
		var names []string
		for {
			select {
			case d := <-ch:
				names = append(names, d.Object)
			default:
				return names
			}
		}
	}
	got2 = drain(ch2)
	got1 := drain(ch1)
	contains := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	if !contains(got2, "o15") {
		t.Errorf("c2 deliveries %v missing o15", got2)
	}
	if contains(got1, "o15") {
		t.Errorf("c1 deliveries %v should not include o15", got1)
	}
	if contains(got1, "o16") || contains(got2, "o16") {
		t.Error("o16 goes to nobody but was delivered")
	}

	cancel2()
	if _, open := <-ch2; open {
		t.Error("canceled subscription channel should be closed")
	}
	cancel2() // idempotent

	// Close rejects new subscriptions and closes survivors.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe("c1"); !errors.Is(err, paretomon.ErrMonitorClosed) {
		t.Errorf("Subscribe after Close: err = %v, want ErrMonitorClosed", err)
	}
	for range ch1 {
	} // drains and observes close without blocking
}

// TestSubscribeSlowConsumerDrops checks the lossy backpressure contract:
// a subscriber that never drains loses oldest deliveries, ingestion never
// stalls, and the losses are counted.
func TestSubscribeSlowConsumerDrops(t *testing.T) {
	s := paretomon.NewSchema("a")
	c := paretomon.NewCommunity(s)
	if _, err := c.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	m, err := paretomon.NewMonitor(c,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
		paretomon.WithSubscriptionBuffer(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Incomparable values: every object is Pareto-optimal, so every Add
	// is a delivery; with buffer 2 the first three must be dropped.
	for i := 0; i < 5; i++ {
		if _, err := m.Add(fmt.Sprintf("o%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.DroppedDeliveries != 3 {
		t.Errorf("dropped = %d, want 3", st.DroppedDeliveries)
	}
	// The survivors are the newest two, in order.
	if d := <-ch; d.Object != "o3" {
		t.Errorf("first surviving delivery = %s, want o3", d.Object)
	}
	if d := <-ch; d.Object != "o4" {
		t.Errorf("second surviving delivery = %s, want o4", d.Object)
	}
}

// TestConcurrentSubscribersWithWriter runs subscription churn and
// consumption against a live writer under -race.
func TestConcurrentSubscribersWithWriter(t *testing.T) {
	c := laptopCommunity(t)
	m, err := paretomon.NewMonitor(c, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			user := []string{"c1", "c2"}[r%2]
			for i := 0; i < 20; i++ {
				ch, cancel, err := m.Subscribe(user)
				if err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		if _, err := m.Add(fmt.Sprintf("n%d", i), "13-15.9", "Apple", "dual"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestCommunityMutationDoesNotRaceMonitor mutates the live community
// (new users, new preferences — both intern into domain tables) while a
// monitor built from it serves reads and writes. The monitor's snapshot
// is a deep copy, so under -race this must be silent.
func TestCommunityMutationDoesNotRaceMonitor(t *testing.T) {
	c := laptopCommunity(t)
	m, err := paretomon.NewMonitor(c, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			u, err := c.AddUser(fmt.Sprintf("late-%d", i))
			if err != nil {
				t.Errorf("AddUser: %v", err)
				return
			}
			// Interns brand-new values into the community's domains.
			if err := u.Prefer("brand", fmt.Sprintf("New-%d", i), "Sony"); err != nil {
				t.Errorf("Prefer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		// Interns brand-new values into the monitor's snapshot domains.
		if _, err := m.Add(fmt.Sprintf("late-o%d", i), "13-15.9", fmt.Sprintf("Brand-%d", i), "dual"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Frontier("c1"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// Users registered after construction are unknown to this monitor.
	if _, err := m.Frontier("late-0"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("late user: err = %v, want ErrUnknownUser", err)
	}
}

// TestWALNotifyWakesWaiters pins the lazy notify channel: a channel
// taken before an append is closed by it, one taken after is open until
// the next; and, under concurrent Adds, a waiter that re-checks the log
// position after taking the channel never misses an append.
func TestWALNotifyWakesWaiters(t *testing.T) {
	m, err := paretomon.NewMonitor(laptopCommunity(t), paretomon.WithStore(paretomon.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	before := m.WALNotify()
	if closed(before) {
		t.Fatal("a channel taken before any append is closed")
	}
	if _, err := m.Add("o0", "13-15.9", "Apple", "dual"); err != nil {
		t.Fatal(err)
	}
	after := m.WALNotify()
	if !closed(before) || closed(after) {
		t.Fatalf("after an append: the earlier channel closed %v, the later one closed %v", closed(before), closed(after))
	}
	if _, err := m.Add("o1", "13-15.9", "Apple", "dual"); err != nil {
		t.Fatal(err)
	}
	if !closed(after) {
		t.Fatal("the next append left the later channel open")
	}

	const writers, perWriter, waiters = 4, 50, 4
	final := m.AppliedSeq() + writers*perWriter
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				if _, err := m.Add(fmt.Sprintf("w%d-%d", w, i), "10-12.9", "Sony", "single"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := m.AppliedSeq()
				if seq >= final {
					return
				}
				ch := m.WALNotify()
				if m.AppliedSeq() > seq {
					continue
				}
				select {
				case <-ch:
					if got := m.AppliedSeq(); got <= seq {
						t.Errorf("woken at position %d, waited at %d", got, seq)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("no wakeup past position %d (final %d)", seq, final)
					return
				}
			}
		}()
	}
	wg.Wait()
}
