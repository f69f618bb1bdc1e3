package conformance_test

import (
	"fmt"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/conformance"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
)

// TestHeteroTopologyCorpus sweeps every synth topology family against a
// small model slice: the full invariant suite per (model, topology) pair,
// including the heterogeneous admissibility bound. graphpipe/sim only: the
// placement dimension lives in the graphpipe core, and the sim backend is
// the cheap deterministic one (CI widens the model slice with
// -conformance.seeds; backend parity across topologies is TestCorpus's
// job).
func TestHeteroTopologyCorpus(t *testing.T) {
	specs := conformance.Corpus(5, 1)
	for _, fam := range synth.TopoFamilies() {
		topology := synth.TopoSpec{Family: fam, Seed: 1}.String()
		t.Run(fam, func(t *testing.T) {
			rep := conformance.CheckCorpus(specs, conformance.Config{
				Planners: []string{"graphpipe"},
				Backends: []string{"sim"},
				Topology: topology,
			})
			for _, s := range rep.Skips {
				t.Logf("skip: %s", s)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
				t.Logf("replay: go test ./internal/conformance -run TestCorpus -conformance.replay=%q -conformance.topology=%q",
					v.Minimal, v.MinimalTopology)
			}
		})
	}
}

// heteroSpeedSpec is a pinned hetero-speed cluster: two double-speed
// devices (ids 0, 1) next to two baseline devices on a flat symmetric
// link, spelled explicitly so the test documents the grammar alongside
// the behavior.
func heteroSpeedSpec(t *testing.T) string {
	t.Helper()
	spec := cluster.Spec{
		Classes: []cluster.DeviceClass{
			{Name: "fast", MemoryBytes: 16e9, PeakFLOPS: 224e12, MemBandwidth: 900e9},
			{Name: "slow", MemoryBytes: 16e9, PeakFLOPS: 112e12, MemBandwidth: 900e9},
		},
		Levels: []cluster.Level{{Name: "link", Width: 4,
			DownBandwidth: 150e9, UpBandwidth: 150e9, Latency: 5e-6}},
		Assign: []int{0, 0, 1, 1},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec.Canonical()
}

// fastShare returns the fraction of the strategy's total FLOPs assigned
// to devices with ids below cut, charging each stage's FLOPs evenly
// across its (data-parallel) device group.
func fastShare(g *graph.Graph, st *strategy.Strategy, cut int) float64 {
	perDevice := make(map[cluster.DeviceID]float64)
	total := 0.0
	for i := range st.Stages {
		stage := &st.Stages[i]
		flops := g.SubgraphCosts(stage.Ops).FwdFLOPs
		total += flops
		for _, d := range stage.Devices {
			perDevice[d] += flops / float64(len(stage.Devices))
		}
	}
	fast := 0.0
	for d, f := range perDevice {
		if int(d) < cut {
			fast += f
		}
	}
	return fast / total
}

// TestHeteroSpeedFavorsFastDevices is the pinned acceptance behavior of
// placement-aware planning: on a cluster whose first two devices are
// twice as fast, the planner assigns a strictly larger share of the
// model's FLOPs to those devices than it does on the equivalent uniform
// cluster — the placement dimension is actually steering work, not just
// along for the ride.
func TestHeteroSpeedFavorsFastDevices(t *testing.T) {
	const devices = 4
	heteroName := heteroSpeedSpec(t)
	uniformName := fmt.Sprintf(
		"topo:explicit/classes=u:16e9:112e12:900e9/levels=link:%d:150e9:150e9:5e-6/assign=%dxu",
		devices, devices)

	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	shareOn := func(name string) float64 {
		t.Helper()
		topo, err := models.Topology(name, devices)
		if err != nil {
			t.Fatal(err)
		}
		g, mb, err := models.Build("sequential", 0, devices)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := pl.Plan(g, topo, mb, planner.Options{
			Workers: 1, CostModel: costmodel.NewDefault(topo),
		})
		if err != nil {
			t.Fatalf("planning on %s: %v", name, err)
		}
		return fastShare(g, st, devices/2)
	}

	hetero := shareOn(heteroName)
	uniform := shareOn(uniformName)
	t.Logf("FLOPs share on devices 0-1: hetero %.3f, uniform %.3f", hetero, uniform)
	if hetero <= uniform {
		t.Errorf("hetero-speed plan gives the 2x-fast devices %.3f of the FLOPs, uniform plan gives %.3f — placement is not steering work",
			hetero, uniform)
	}
}

// TestShrinkTopology pins the topology minimizer: a failure independent
// of the cluster collapses to the Summit default, a failure needing any
// synth topology keeps the family but not necessarily the shape, and a
// topology-specific failure stays put.
func TestShrinkTopology(t *testing.T) {
	const hier = "topo:hierarchical/seed=9"
	if got := conformance.ShrinkTopology(hier, func(string) bool { return true }); got != "" {
		t.Errorf("always-failing predicate kept %q, want the Summit default", got)
	}
	if got := conformance.ShrinkTopology(hier, func(topology string) bool {
		return topology != ""
	}); got != "topo:uniform/seed=9" {
		t.Errorf("synth-only failure minimized to %q, want topo:uniform/seed=9", got)
	}
	if got := conformance.ShrinkTopology(hier, func(topology string) bool {
		return topology == hier
	}); got != hier {
		t.Errorf("topology-specific failure moved to %q, want %q", got, hier)
	}
	if got := conformance.ShrinkTopology("", func(string) bool { return true }); got != "" {
		t.Errorf("default topology shrank to %q", got)
	}
}
