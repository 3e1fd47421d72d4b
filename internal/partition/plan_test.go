package partition

import (
	"fmt"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%d", i)
	}
	return out
}

// TestPlanDeterminism: two plans with identical parameters are the same
// function — the contract that lets a router and its -partition i/n
// processes agree on ownership without coordination.
func TestPlanDeterminism(t *testing.T) {
	a, err := NewPlan(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(5, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range names(2000) {
		if a.Owner(u) != b.Owner(u) {
			t.Fatalf("owner(%q) differs: %d vs %d", u, a.Owner(u), b.Owner(u))
		}
	}
	if a.Partitions() != 5 || a.VNodes() != DefaultVNodes {
		t.Fatalf("plan params: %d/%d", a.Partitions(), a.VNodes())
	}
}

// TestPlanCoverage: every user lands on exactly one partition, every
// partition gets a plausible share (no partition starves).
func TestPlanCoverage(t *testing.T) {
	p, err := NewPlan(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	users := names(4000)
	owned := make([]int, 4)
	for _, u := range users {
		o := p.Owner(u)
		if o < 0 || o >= len(owned) {
			t.Fatalf("Owner(%q) = %d, outside the 4 partitions", u, o)
		}
		owned[o]++
	}
	for i, n := range owned {
		if n == 0 {
			t.Fatalf("partition %d owns no users", i)
		}
		// 64 vnodes keeps imbalance modest; allow a wide margin so the
		// test pins behavior, not luck.
		if n < len(users)/4/3 || n > len(users)/4*3 {
			t.Errorf("partition %d owns %d of %d users — implausible skew", i, n, len(users))
		}
	}
}

// TestPlanStability: growing the fleet n → n+1 must relocate only a
// minority of users — the property consistent hashing buys over plain
// modulo (which would move ~n/(n+1) of them).
func TestPlanStability(t *testing.T) {
	p3, err := NewPlan(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := NewPlan(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	users := names(4000)
	moved := 0
	for _, u := range users {
		if p3.Owner(u) != p4.Owner(u) {
			moved++
		}
	}
	// Expect ~1/4 moved; fail only if over half did.
	if moved > len(users)/2 {
		t.Fatalf("%d of %d users moved growing 3→4 partitions", moved, len(users))
	}
	if moved == 0 {
		t.Fatal("no users moved growing 3→4 partitions — the new partition owns nothing")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 0); err == nil {
		t.Fatal("NewPlan(0, 0) should fail")
	}
	if _, err := NewPlan(-1, 16); err == nil {
		t.Fatal("NewPlan(-1, 16) should fail")
	}
}
