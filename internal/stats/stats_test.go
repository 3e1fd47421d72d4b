package stats

import (
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	c := &Counters{}
	c.AddFilter(3)
	c.AddVerify(2)
	c.AddDelivered(5)
	c.AddProcessed()
	c.AddProcessed()
	c.AddTwin()
	if c.Comparisons != 5 || c.FilterComparisons != 3 || c.VerifyComparisons != 2 {
		t.Errorf("comparisons: %+v", c)
	}
	if c.Delivered != 5 || c.Processed != 2 || c.Twins != 1 {
		t.Errorf("delivered/processed/twins: %+v", c)
	}
	sum := Counters{Twins: 2}
	sum.Merge(*c)
	if sum.Twins != 3 || sum.Comparisons != 5 || sum.Processed != 2 {
		t.Errorf("Merge: %+v", sum)
	}
	snap := c.Snapshot()
	c.AddVerify(1)
	if snap.Comparisons != 5 {
		t.Error("Snapshot must be a copy")
	}
	c.Reset()
	if *c != (Counters{}) {
		t.Errorf("Reset left %+v", c)
	}
}

func TestNilCountersSafe(t *testing.T) {
	var c *Counters
	c.AddFilter(1)
	c.AddVerify(1)
	c.AddDelivered(1)
	c.AddProcessed()
	c.AddTwin()
	c.Reset()
	if got := c.Snapshot(); got != (Counters{}) {
		t.Errorf("nil Snapshot = %+v", got)
	}
	if got := c.String(); !strings.Contains(got, "cmp=0") {
		t.Errorf("nil String = %q", got)
	}
}

func TestString(t *testing.T) {
	c := &Counters{}
	c.AddFilter(2)
	c.AddVerify(3)
	c.AddDelivered(1)
	c.AddProcessed()
	want := "cmp=5 (filter=2 verify=3) delivered=1 processed=1"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
