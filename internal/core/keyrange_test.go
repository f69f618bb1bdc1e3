package core

import (
	"runtime"
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// The dpKey packing masks each field to a fixed bit width; plan must reject
// any configuration that could overflow a field instead of silently
// colliding memo keys (and returning a corrupt strategy).

func newTestPartitioner(t *testing.T, devices int, opts planner.Options) *partitioner {
	t.Helper()
	g := models.SequentialTransformer(2)
	topo := cluster.NewSummitTopology(devices)
	p, err := newPartitioner(g, costmodel.NewDefault(topo), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyRangeDeviceLimit(t *testing.T) {
	// 127 devices is the last packable count; direct validation accepts it.
	p := newTestPartitioner(t, 127, planner.Options{})
	if err := p.validateKeyRanges([]int{1}); err != nil {
		t.Errorf("127 devices rejected: %v", err)
	}
	// 128 devices would wrap the 7-bit field to 0: the planner must
	// refuse them.
	topo := cluster.NewSummitTopology(128)
	if _, _, err := (graphpipe{}).Plan(models.SequentialTransformer(2), topo, 256, planner.Options{}); err == nil || !strings.Contains(err.Error(), "device") {
		t.Errorf("128 devices: want device-limit error, got %v", err)
	}
}

// TestDeviceLimitBeforePlacementTable pins that the device limit is
// checked before anything per device pair is allocated: the placement
// table of a 1,024-device cluster alone holds a million class ids (4 MB).
func TestDeviceLimitBeforePlacementTable(t *testing.T) {
	g := models.SequentialTransformer(2)
	topo := cluster.NewSummitTopology(1024)
	m := costmodel.NewDefault(topo)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := (graphpipe{}).Plan(g, topo, 256, planner.Options{CostModel: m, Workers: 1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "device") {
		t.Fatalf("1024 devices: want device-limit error, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing 1024 devices allocated %d bytes, want under 1 MB", alloc)
	}
}

func TestKeyRangeConfigLimit(t *testing.T) {
	// Per-stage mode interns the root config plus one per candidate size,
	// and a mini-batch of 2^k with the cap lifted has k+1 candidates. At
	// 2^62 that is 64 configs, one more than the 6-bit index allows (the
	// placement dimension took the bits the config index used to have).
	perStage := func(mini int) planner.Options {
		return planner.Options{PerStageMicroBatch: true, MaxMicroBatch: mini}
	}
	p := newTestPartitioner(t, 2, perStage(1<<62))
	if _, _, err := p.plan(1 << 62); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("64 configs: want config-limit error, got %v", err)
	}
	// 63 fit (boundary): at 2^61 the config count passes, and the search
	// is refused by the next guard, its in-flight bound, instead.
	p = newTestPartitioner(t, 2, perStage(1<<61))
	if _, _, err := p.plan(1 << 61); err == nil || strings.Contains(err.Error(), "config") ||
		!strings.Contains(err.Error(), "in-flight") {
		t.Errorf("63 configs: want the in-flight error past the config check, got %v", err)
	}
}

func TestKeyRangeInFlightBound(t *testing.T) {
	// A micro-batch so large that the worst-case in-flight count
	// (3·b·devices) cannot fit the 22-bit field. ForcedMicroBatch bypasses
	// the MaxMicroBatch cap, which is exactly how an oversized model would
	// have silently truncated before the check existed.
	const huge = 1 << 25
	p := newTestPartitioner(t, 4, planner.Options{ForcedMicroBatch: huge})
	if _, _, err := p.plan(huge); err == nil || !strings.Contains(err.Error(), "in-flight") {
		t.Errorf("huge micro-batch: want in-flight-bound error, got %v", err)
	}
}

func TestKeyRangeZoneLimit(t *testing.T) {
	p := newTestPartitioner(t, 2, planner.Options{})
	// White-box: inflate the interned-zone table past the 14-bit id space;
	// building a real >16384-zone model in a unit test would dominate the
	// suite's runtime.
	p.zones.sets = make([]graph.NodeSet, maxZoneID+2)
	if err := p.validateKeyRanges([]int{1}); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Errorf("oversized zone table: want zone-limit error, got %v", err)
	}
	p.zones.sets = p.zones.sets[:maxZoneID+1] // boundary: exactly 2^14 zones fit
	if err := p.validateKeyRanges([]int{1}); err != nil {
		t.Errorf("full-but-legal zone table rejected: %v", err)
	}
}
