// Package piper_test tests the Piper baseline, which lives in
// internal/baselines, through the planner registry.
package piper_test

import (
	"errors"
	"testing"

	"graphpipe/internal/baselines"
	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"
)

func plan(g *graph.Graph, topo *cluster.Topology, mini int, opts planner.Options) (*strategy.Strategy, error) {
	p, err := planner.Get("piper")
	if err != nil {
		return nil, err
	}
	st, _, err := p.Plan(g, topo, mini, opts)
	return st, err
}

func TestPlanChainValid(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	st, err := plan(g, topo, 32, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("invalid strategy: %v", err)
	}
	if st.Planner != "piper" {
		t.Errorf("planner tag = %q", st.Planner)
	}
	if st.Depth() != st.NumStages() {
		t.Errorf("Piper strategies are sequential: depth %d stages %d",
			st.Depth(), st.NumStages())
	}
}

func TestTwoBranchModelSolvable(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 3
	g := models.MMT(cfg)
	topo := cluster.NewSummitTopology(4)
	st, err := plan(g, topo, 16, planner.Options{})
	if err != nil {
		t.Fatalf("Piper should handle 2 branches: %v", err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
	// Piper's stages may span branches but the pipeline stays sequential.
	if st.Depth() != st.NumStages() {
		t.Error("Piper produced a non-sequential pipeline")
	}
}

// TestManyBranchesExplode reproduces Table 1's ✗: the downset lattice of a
// many-branch model exceeds any practical state budget.
func TestManyBranchesExplode(t *testing.T) {
	cfg := models.DefaultCANDLEUnoConfig() // 7 branches x 4 layers
	g := models.CANDLEUno(cfg)
	_, err := plan(g, cluster.NewSummitTopology(8), 64, planner.Options{StateBudget: 50_000})
	if !errors.Is(err, baselines.ErrSearchExplosion) {
		t.Fatalf("want ErrSearchExplosion, got %v", err)
	}
}

func TestDLRMExplodes(t *testing.T) {
	g := models.DLRM(models.DefaultDLRMConfig()) // 14 branches
	_, err := plan(g, cluster.NewSummitTopology(4), 64, planner.Options{StateBudget: 50_000})
	if !errors.Is(err, baselines.ErrSearchExplosion) {
		t.Fatalf("want ErrSearchExplosion, got %v", err)
	}
}

func TestForcedAndInvalidInputs(t *testing.T) {
	g := models.SequentialTransformer(6)
	topo := cluster.NewSummitTopology(2)
	if _, err := plan(g, topo, 0, planner.Options{}); err == nil {
		t.Error("accepted zero mini-batch")
	}
	if _, err := plan(g, topo, 32, planner.Options{ForcedMicroBatch: 5}); err == nil {
		t.Error("accepted non-dividing forced micro-batch")
	}
	st, err := plan(g, topo, 32, planner.Options{ForcedMicroBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range st.Stages {
		if stage.Config.MicroBatch != 4 {
			t.Errorf("micro-batch = %d", stage.Config.MicroBatch)
		}
	}
}

func TestInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(6)
	topo := cluster.NewUniformTopology(2, 1e6, 100e9)
	if _, err := plan(g, topo, 16, planner.Options{}); err == nil {
		t.Error("planned into 1MB devices")
	}
}

func TestStrategySimulates(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	st, err := plan(g, topo, 16, planner.Options{})
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
