package core

import (
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/schedule"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"
)

// planOn plans g on topo through the registered planner.
func planOn(t testing.TB, g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats) {
	t.Helper()
	st, stats, err := graphpipe{}.Plan(g, topo, miniBatch, opts)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return st, stats
}

func planFor(t testing.TB, g *graph.Graph, devices, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats) {
	t.Helper()
	return planOn(t, g, cluster.NewSummitTopology(devices), miniBatch, opts)
}

func TestPlanSequentialChain(t *testing.T) {
	g := models.SequentialTransformer(8)
	st, stats := planFor(t, g, 4, 32, planner.Options{})
	topo := cluster.NewSummitTopology(4)
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	if n := st.NumStages(); n < 1 || n > 4 {
		t.Errorf("stages = %d", n)
	}
	// A chain's stage graph is a chain: depth == number of stages.
	if st.Depth() != st.NumStages() {
		t.Errorf("chain depth %d != stages %d", st.Depth(), st.NumStages())
	}
	if stats.BottleneckTPS <= 0 {
		t.Error("BottleneckTPS not recorded")
	}
	if stats.DPStates == 0 || stats.BinaryIters == 0 {
		t.Errorf("search stats empty: %+v", stats)
	}
}

func TestPlanExploitsBranches(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	s, _ := planFor(t, g, 8, 32, planner.Options{})
	topo := cluster.NewSummitTopology(8)
	if err := s.Validate(g, topo); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	// GPP must produce a stage graph shallower than its stage count when
	// the model has parallel branches and more than a couple stages.
	if s.NumStages() >= 4 && s.Depth() >= s.NumStages() {
		t.Errorf("no branch parallelism: depth %d, stages %d\n%s", s.Depth(), s.NumStages(), s)
	}
}

func TestPlanUsesAllDevices(t *testing.T) {
	g := models.SequentialTransformer(8)
	for _, devs := range []int{2, 4, 8} {
		s, _ := planFor(t, g, devs, 32, planner.Options{})
		used := 0
		for _, st := range s.Stages {
			used += len(st.Devices)
		}
		if used != devs {
			t.Errorf("devices=%d: strategy uses %d (C3 requires all)", devs, used)
		}
	}
}

func TestForcedMicroBatch(t *testing.T) {
	g := models.SequentialTransformer(8)
	s, _ := planFor(t, g, 4, 32, planner.Options{ForcedMicroBatch: 2})
	for _, st := range s.Stages {
		if st.Config.MicroBatch != 2 {
			t.Errorf("stage %d micro-batch = %d, want forced 2", st.ID, st.Config.MicroBatch)
		}
	}
}

func TestForcedMicroBatchMustDivide(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(4)
	if _, _, err := (graphpipe{}).Plan(g, topo, 32, planner.Options{ForcedMicroBatch: 7}); err == nil {
		t.Error("accepted non-dividing forced micro-batch")
	}
}

func TestPlanRejectsMultiSinkGraph(t *testing.T) {
	b := graph.NewBuilder("bad")
	x := b.AddOp(graph.Op{Name: "x"})
	y := b.AddOp(graph.Op{Name: "y"})
	z := b.AddOp(graph.Op{Name: "z"})
	b.Connect(x, y)
	b.Connect(x, z)
	g := b.MustBuild()
	topo := cluster.NewSummitTopology(2)
	if _, err := newPartitioner(g, costmodel.NewDefault(topo), planner.Options{}); err == nil {
		t.Error("planner accepted multi-sink graph")
	}
}

func TestPlanInvalidMiniBatch(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(2)
	if _, _, err := (graphpipe{}).Plan(g, topo, 0, planner.Options{}); err == nil {
		t.Error("accepted zero mini-batch")
	}
}

func TestPlanInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(8)
	// 1 MB per device: nothing fits.
	topo := cluster.NewUniformTopology(4, 1e6, 100e9)
	if _, _, err := (graphpipe{}).Plan(g, topo, 32, planner.Options{}); err == nil {
		t.Error("planned a strategy that cannot fit memory")
	}
}

func TestPlanInFlightMatchesBackwardTraversal(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	s, _ := planFor(t, g, 8, 32, planner.Options{})
	// Recompute independently and compare.
	order := s.TopoOrder()
	want := make([]int, len(s.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var succs []schedule.Successor
		for _, w := range s.Succ[id] {
			succs = append(succs, schedule.Successor{Config: s.Stages[w].Config, InFlight: want[w]})
		}
		want[id] = schedule.ComputeInFlight(s.Stages[id].Config, succs)
	}
	for i := range s.Stages {
		if s.Stages[i].InFlightSamples != want[i] {
			t.Errorf("stage %d in-flight = %d, want %d", i, s.Stages[i].InFlightSamples, want[i])
		}
	}
}

func TestDeeperPipelineNeedsMoreInFlight(t *testing.T) {
	g := models.SequentialTransformer(16)
	s2, _ := planFor(t, g, 2, 64, planner.Options{ForcedMicroBatch: 4})
	s8, _ := planFor(t, g, 8, 64, planner.Options{ForcedMicroBatch: 4})
	if s8.NumStages() <= s2.NumStages() {
		t.Skipf("planner did not deepen pipeline: %d vs %d stages",
			s8.NumStages(), s2.NumStages())
	}
	if s8.MaxInFlightSamples() <= s2.MaxInFlightSamples() {
		t.Errorf("deeper pipeline should hold more samples: %d (8dev) vs %d (2dev)",
			s8.MaxInFlightSamples(), s2.MaxInFlightSamples())
	}
}

func TestBottleneckTPSDecreasesWithDevices(t *testing.T) {
	g := models.SequentialTransformer(16)
	prev := -1.0
	for _, devs := range []int{2, 4, 8} {
		_, stats := planFor(t, g, devs, 64, planner.Options{})
		if prev > 0 && stats.BottleneckTPS > prev*1.05 {
			t.Errorf("devices=%d: bottleneck TPS %g worse than with fewer devices %g",
				devs, stats.BottleneckTPS, prev)
		}
		prev = stats.BottleneckTPS
	}
}

func TestPerStageMicroBatchSearch(t *testing.T) {
	// A deliberately heterogeneous model: a compute-light branch segment
	// followed by a compute-heavy one, so different stages prefer
	// different micro-batch sizes (Figure 5's scenario).
	b := graph.NewBuilder("hetero")
	in := b.AddOp(graph.Op{Name: "in", Kind: graph.OpInput, OutputBytes: 1e4})
	light := b.AddOp(graph.Op{Name: "light", Kind: graph.OpEmbedding,
		FwdFLOPs: 1e6, ParamBytes: 1e8, ActivationBytes: 1e6, OutputBytes: 1e4})
	mid := b.AddOp(graph.Op{Name: "mid", Kind: graph.OpLinear,
		FwdFLOPs: 5e9, ParamBytes: 1e8, ActivationBytes: 1e5, OutputBytes: 1e4})
	heavy := b.AddOp(graph.Op{Name: "heavy", Kind: graph.OpLinear,
		FwdFLOPs: 2e10, ParamBytes: 4e8, ActivationBytes: 1e5, OutputBytes: 1e4})
	out := b.AddOp(graph.Op{Name: "out", Kind: graph.OpOutput,
		FwdFLOPs: 1e6, OutputBytes: 1e3})
	b.Chain(in, light, mid, heavy, out)
	g := b.MustBuild()

	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _ := planOn(t, g, topo, 64, planner.Options{PerStageMicroBatch: true, CostModel: m})
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("per-stage strategy invalid: %v", err)
	}
	// The strategy must simulate correctly even with mixed micro-batch
	// sizes (sample-range alignment).
	if _, err := sim.New(g, m).Run(st); err != nil {
		t.Fatalf("mixed micro-batch simulation failed: %v", err)
	}
}

func TestPerStageMicroBatchAtLeastAsGoodOnFig5Shape(t *testing.T) {
	// On a uniform chain, enabling per-stage search must not produce a
	// worse strategy than the uniform default (it strictly enlarges the
	// search space; selection uses the same score).
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	sm := sim.New(g, m)

	su, _ := planOn(t, g, topo, 32, planner.Options{CostModel: m})
	resU, err := sm.Run(su)
	if err != nil {
		t.Fatal(err)
	}

	sp, _ := planOn(t, g, topo, 32, planner.Options{PerStageMicroBatch: true, CostModel: m})
	resP, err := sm.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if resP.Throughput < 0.85*resU.Throughput {
		t.Errorf("per-stage search much worse than uniform: %.0f vs %.0f",
			resP.Throughput, resU.Throughput)
	}
}

func TestPlanHandlesNonSPGraph(t *testing.T) {
	// A "crossing" DAG that is not node-series-parallel: the planner must
	// fall back to linearized chain splits (§5's conversion) inside the
	// non-SP region rather than refusing or treating it as one stage.
	b := graph.NewBuilder("nonsp")
	in1 := b.AddOp(graph.Op{Name: "in1", Kind: graph.OpInput, OutputBytes: 1e4})
	in2 := b.AddOp(graph.Op{Name: "in2", Kind: graph.OpInput, OutputBytes: 1e4})
	// Parameters too large to replicate across all four devices: the
	// planner cannot fall back to pure data parallelism and must pipeline
	// through the non-SP region.
	mk := func(name string) graph.NodeID {
		return b.AddOp(graph.Op{Name: name, Kind: graph.OpLinear,
			FwdFLOPs: 5e9, ParamBytes: 1.5e9, ActivationBytes: 1e5, OutputBytes: 1e4})
	}
	a, bb, c, dd := mk("a"), mk("b"), mk("c"), mk("d")
	out := b.AddOp(graph.Op{Name: "out", Kind: graph.OpOutput, FwdFLOPs: 1e6, OutputBytes: 1e3})
	b.Connect(in1, a)
	b.Connect(in2, bb)
	b.Connect(a, c)
	b.Connect(a, dd)
	b.Connect(bb, dd)
	b.Connect(c, out)
	b.Connect(dd, out)
	g := b.MustBuild()

	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _ := planOn(t, g, topo, 32, planner.Options{CostModel: m})
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("non-SP strategy invalid: %v", err)
	}
	if _, err := sim.New(g, m).Run(st); err != nil {
		t.Fatalf("non-SP strategy does not simulate: %v", err)
	}
	// The fallback must allow pipelining across the crossing region at 4
	// devices (more than one stage).
	if st.NumStages() < 2 {
		t.Errorf("non-SP fallback produced a single stage on 4 devices")
	}
}

// TestPlannerZooIntegration plans and simulates every model-zoo entry on a
// small cluster with every executor: the strategy must validate, both
// executors must agree, and the depth must never exceed the stage count.
func TestPlannerZooIntegration(t *testing.T) {
	graphs := []*graph.Graph{
		models.MMT(models.MMTConfig{Branches: 2, LayersPerBranch: 3, Layer: models.DefaultTransformerConfig()}),
		models.DLRM(models.DLRMConfig{DenseBranches: 3, SparseBranches: 2, DenseLayers: 2,
			Hidden: 1024, EmbedDim: 32, EmbedEntries: 10000, BagSize: 10, TopLayers: 2, DTypeBytes: 4}),
		models.CANDLEUno(models.CANDLEUnoConfig{Branches: 3, Layers: 2, Hidden: 1024, DTypeBytes: 4}),
		models.Generalist(models.DefaultGeneralistConfig()),
		models.SequentialTransformer(6),
	}
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	for _, g := range graphs {
		st, _, err := graphpipe{}.Plan(g, topo, 32, planner.Options{CostModel: m})
		if err != nil {
			t.Errorf("%s: %v", g.Name(), err)
			continue
		}
		if err := st.Validate(g, topo); err != nil {
			t.Errorf("%s: invalid strategy: %v", g.Name(), err)
			continue
		}
		if st.Depth() > st.NumStages() {
			t.Errorf("%s: depth %d > stages %d", g.Name(), st.Depth(), st.NumStages())
		}
		res, err := sim.New(g, m).Run(st)
		if err != nil {
			t.Errorf("%s: sim: %v", g.Name(), err)
			continue
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: zero throughput", g.Name())
		}
	}
}
