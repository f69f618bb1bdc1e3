package main

import (
	"errors"
	"testing"
	"time"
)

func TestRepeatWithinRunsAtLeastAndStopsAtBudget(t *testing.T) {
	// A unit far longer than the budget still runs atLeast times.
	n := 0
	times, err := repeatWithin(time.Millisecond, 3, func() error {
		n++
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || n != 3 || len(times) != 3 {
		t.Fatalf("ran %d times (%d timed, err %v), want 3", n, len(times), err)
	}
	// A short unit repeats until one more would overrun the budget.
	n = 0
	if _, err := repeatWithin(50*time.Millisecond, 1, func() error {
		n++
		time.Sleep(5 * time.Millisecond)
		return nil
	}); err != nil || n < 5 || n > 10 {
		t.Fatalf("5 ms unit in a 50 ms budget ran %d times (err %v)", n, err)
	}
	// An error ends the repeats at once.
	boom := errors.New("boom")
	n = 0
	if _, err := repeatWithin(time.Second, 3, func() error { n++; return boom }); err != boom || n != 1 {
		t.Fatalf("ran %d times after an error, err %v", n, err)
	}
}

func TestCheckMetricsWantsEveryMetricOfTheTable(t *testing.T) {
	table := []metricDef{{"setup_s", "s"}, {"plan_sps", "samples/s"}}
	full := map[string]metric{"setup_s": {0.5, "s"}, "plan_sps": {3051, "samples/s"}}
	if err := checkMetrics(full, table, true); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"setup_s": {0.5, "s"}},
		"extra":      {"setup_s": {0.5, "s"}, "plan_sps": {3051, "samples/s"}, "serve_rps": {1, "req/s"}},
		"wrong unit": {"setup_s": {0.5, "ms"}, "plan_sps": {3051, "samples/s"}},
		"zero":       {"setup_s": {0, "s"}, "plan_sps": {3051, "samples/s"}},
	} {
		if err := checkMetrics(got, table, true); err == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
	// Per-layer metrics may read 0: a layer the workload never calls.
	if err := checkMetrics(map[string]metric{"setup_s": {0, "s"}, "plan_sps": {0, "samples/s"}}, table, false); err != nil {
		t.Errorf("zero per-layer values refused: %v", err)
	}
}
