// Package pipedream_test tests the PipeDream baseline, which lives in
// internal/baselines, through the planner registry.
package pipedream_test

import (
	"testing"

	_ "graphpipe/internal/baselines"
	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"
)

func plan(g *graph.Graph, topo *cluster.Topology, mini int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p, err := planner.Get("pipedream")
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return p.Plan(g, topo, mini, opts)
}

func planChain(t testing.TB, devices, mini int, opts planner.Options) *strategy.Strategy {
	t.Helper()
	st, _, err := plan(models.SequentialTransformer(8), cluster.NewSummitTopology(devices), mini, opts)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return st
}

func TestPlanChainValid(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	st, stats, err := plan(g, topo, 32, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("invalid strategy: %v", err)
	}
	if st.Planner != "pipedream" {
		t.Errorf("planner tag = %q", st.Planner)
	}
	// Sequential: depth equals stage count.
	if st.Depth() != st.NumStages() {
		t.Errorf("depth %d != stages %d", st.Depth(), st.NumStages())
	}
	if stats.DPStates == 0 || stats.BottleneckTPS <= 0 {
		t.Errorf("stats missing: %+v", stats)
	}
}

// TestSPPStaysSequentialOnBranches is the defining property of the
// baseline: even on a multi-branch model, PipeDream's strategies form a
// strict chain (Figure 2 top), so depth always equals stage count.
func TestSPPStaysSequentialOnBranches(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	topo := cluster.NewSummitTopology(8)
	st, _, err := plan(g, topo, 32, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
	if st.Depth() != st.NumStages() {
		t.Errorf("SPP produced non-sequential pipeline: depth %d, stages %d",
			st.Depth(), st.NumStages())
	}
	// 1F1B in-flight counts decrease along the chain.
	for i := 1; i < st.NumStages(); i++ {
		if st.Stages[i].InFlightSamples > st.Stages[i-1].InFlightSamples {
			t.Errorf("in-flight not monotone along chain: stage %d", i)
		}
	}
}

func TestUsesAllDevices(t *testing.T) {
	st := planChain(t, 4, 32, planner.Options{})
	used := 0
	for _, stage := range st.Stages {
		used += len(stage.Devices)
	}
	if used != 4 {
		t.Errorf("devices used = %d, want 4", used)
	}
}

func TestForcedMicroBatch(t *testing.T) {
	st := planChain(t, 4, 32, planner.Options{ForcedMicroBatch: 4})
	for _, stage := range st.Stages {
		if stage.Config.MicroBatch != 4 {
			t.Errorf("micro-batch = %d, want 4", stage.Config.MicroBatch)
		}
	}
	g := models.SequentialTransformer(8)
	if _, _, err := plan(g, cluster.NewSummitTopology(4), 32, planner.Options{ForcedMicroBatch: 5}); err == nil {
		t.Error("accepted non-dividing forced micro-batch")
	}
}

func TestInvalidMiniBatch(t *testing.T) {
	g := models.SequentialTransformer(4)
	if _, _, err := plan(g, cluster.NewSummitTopology(2), 0, planner.Options{}); err == nil {
		t.Error("accepted zero mini-batch")
	}
}

func TestInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewUniformTopology(4, 1e6, 100e9)
	if _, _, err := plan(g, topo, 32, planner.Options{}); err == nil {
		t.Error("planned into 1MB devices")
	}
}

func TestStrategySimulates(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	st, _, err := plan(g, topo, 32, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, costmodel.NewDefault(topo)).Run(st)
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput")
	}
}
