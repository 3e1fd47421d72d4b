package paretomon_test

import (
	"errors"
	"math"
	"testing"

	paretomon "repro"
)

// TestOptionValueValidation pins the ErrBadOption taxonomy: every With*
// option fed an out-of-range value must reject it from NewMonitor with
// an error wrapping both ErrBadOption and (for v2 compatibility)
// ErrInvalidConfig — silently-accepted negatives caused clamps and
// panics deep inside the engines before.
func TestOptionValueValidation(t *testing.T) {
	s := paretomon.NewSchema("a")
	com := paretomon.NewCommunity(s)
	if _, err := com.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  paretomon.Option
	}{
		{"WithWindow(-1)", paretomon.WithWindow(-1)},
		{"WithWorkers(-1)", paretomon.WithWorkers(-1)},
		{"WithSnapshotEvery(-1)", paretomon.WithSnapshotEvery(-1)},
		{"WithClusterCount(0)", paretomon.WithClusterCount(0)},
		{"WithClusterCount(-3)", paretomon.WithClusterCount(-3)},
		{"WithBranchCut(-0.5)", paretomon.WithBranchCut(-0.5)},
		{"WithBranchCut(NaN)", paretomon.WithBranchCut(math.NaN())},
		{"WithSubscriptionBuffer(0)", paretomon.WithSubscriptionBuffer(0)},
		{"WithThetas(0, 0.5)", paretomon.WithThetas(0, 0.5)},
		{"WithThetas(10, 1.0)", paretomon.WithThetas(10, 1.0)},
		{"WithThetas(10, NaN)", paretomon.WithThetas(10, math.NaN())},
		{"WithAlgorithm(99)", paretomon.WithAlgorithm(paretomon.Algorithm(99))},
		{"WithMeasure(99)", paretomon.WithMeasure(paretomon.Measure(99))},
		{"WithStore(nil)", paretomon.WithStore(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := paretomon.NewMonitor(com, tc.opt)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !errors.Is(err, paretomon.ErrBadOption) {
				t.Errorf("%s: %v does not wrap ErrBadOption", tc.name, err)
			}
			if !errors.Is(err, paretomon.ErrInvalidConfig) {
				t.Errorf("%s: %v does not wrap ErrInvalidConfig", tc.name, err)
			}
		})
	}

	// In-range values still construct.
	if _, err := paretomon.NewMonitor(com,
		paretomon.WithWindow(0), paretomon.WithWorkers(0), paretomon.WithClusterCount(1)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}
