package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunBatteryOrderAndBound: the worker pool returns reports in
// battery order regardless of completion order, and never has more
// than jobs experiments in flight.
func TestRunBatteryOrderAndBound(t *testing.T) {
	const n, jobs = 12, 3
	var inFlight, peak atomic.Int64
	list := make([]NamedExperiment, n)
	for i := range list {
		id := fmt.Sprintf("X%d", i)
		list[i] = NamedExperiment{ID: id, Run: func(ExperimentOpts) (*Report, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			return &Report{ID: id}, nil
		}}
	}
	reports, err := RunBattery(list, ExperimentOpts{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for i, rep := range reports {
		if want := fmt.Sprintf("X%d", i); rep.ID != want {
			t.Errorf("report %d is %q, want %q — pool broke battery order", i, rep.ID, want)
		}
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("pool had %d experiments in flight, bound is %d", p, jobs)
	}
}

// TestRunBatteryError: a failing experiment fails the whole battery
// with its ID attached, and the error surfaces at any worker count.
func TestRunBatteryError(t *testing.T) {
	boom := errors.New("boom")
	list := []NamedExperiment{
		{ID: "OK1", Run: func(ExperimentOpts) (*Report, error) { return &Report{ID: "OK1"}, nil }},
		{ID: "BAD", Run: func(ExperimentOpts) (*Report, error) { return nil, boom }},
		{ID: "OK2", Run: func(ExperimentOpts) (*Report, error) { return &Report{ID: "OK2"}, nil }},
	}
	for _, jobs := range []int{1, 4} {
		_, err := RunBattery(list, ExperimentOpts{}, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: got %v, want wrapped boom", jobs, err)
		}
	}
}

// TestBatteryOrder: the battery lists every experiment once, in
// DESIGN.md order.
func TestBatteryOrder(t *testing.T) {
	ids := []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11", "F1/F2", "F2B"}
	battery := Battery()
	if len(battery) != len(ids) {
		t.Fatalf("battery has %d experiments, want %d", len(battery), len(ids))
	}
	for i, ne := range battery {
		if ne.ID != ids[i] {
			t.Errorf("battery[%d] = %q, want %q", i, ne.ID, ids[i])
		}
	}
}
