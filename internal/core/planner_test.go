package core

import (
	"graphpipe/internal/sim"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/schedule"
)

func planFor(t testing.TB, g *graph.Graph, devices, miniBatch int, opts Options) *Result {
	t.Helper()
	topo := cluster.NewSummitTopology(devices)
	m := costmodel.NewDefault(topo)
	p, err := NewPlanner(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(miniBatch)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return r
}

func TestPlanSequentialChain(t *testing.T) {
	g := models.SequentialTransformer(8)
	r := planFor(t, g, 4, 32, Options{})
	topo := cluster.NewSummitTopology(4)
	if err := r.Strategy.Validate(g, topo); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	if n := r.Strategy.NumStages(); n < 1 || n > 4 {
		t.Errorf("stages = %d", n)
	}
	// A chain's stage graph is a chain: depth == number of stages.
	if r.Strategy.Depth() != r.Strategy.NumStages() {
		t.Errorf("chain depth %d != stages %d", r.Strategy.Depth(), r.Strategy.NumStages())
	}
	if r.BottleneckTPS <= 0 {
		t.Error("BottleneckTPS not recorded")
	}
	if r.DPStates == 0 || r.BinaryIters == 0 {
		t.Errorf("search stats empty: %+v", r)
	}
}

func TestPlanExploitsBranches(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	r := planFor(t, g, 8, 32, Options{})
	topo := cluster.NewSummitTopology(8)
	if err := r.Strategy.Validate(g, topo); err != nil {
		t.Fatalf("strategy invalid: %v", err)
	}
	s := r.Strategy
	// GPP must produce a stage graph shallower than its stage count when
	// the model has parallel branches and more than a couple stages.
	if s.NumStages() >= 4 && s.Depth() >= s.NumStages() {
		t.Errorf("no branch parallelism: depth %d, stages %d\n%s", s.Depth(), s.NumStages(), s)
	}
}

func TestPlanUsesAllDevices(t *testing.T) {
	g := models.SequentialTransformer(8)
	for _, devs := range []int{2, 4, 8} {
		r := planFor(t, g, devs, 32, Options{})
		used := 0
		for _, st := range r.Strategy.Stages {
			used += len(st.Devices)
		}
		if used != devs {
			t.Errorf("devices=%d: strategy uses %d (C3 requires all)", devs, used)
		}
	}
}

func TestForcedMicroBatch(t *testing.T) {
	g := models.SequentialTransformer(8)
	r := planFor(t, g, 4, 32, Options{ForcedMicroBatch: 2})
	for _, st := range r.Strategy.Stages {
		if st.Config.MicroBatch != 2 {
			t.Errorf("stage %d micro-batch = %d, want forced 2", st.ID, st.Config.MicroBatch)
		}
	}
}

func TestForcedMicroBatchMustDivide(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	p, err := NewPlanner(g, m, Options{ForcedMicroBatch: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(32); err == nil {
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
	if _, err := NewPlanner(g, costmodel.NewDefault(topo), Options{}); err == nil {
		t.Error("planner accepted multi-sink graph")
	}
}

func TestPlanInvalidMiniBatch(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(2)
	p, _ := NewPlanner(g, costmodel.NewDefault(topo), Options{})
	if _, err := p.Plan(0); err == nil {
		t.Error("accepted zero mini-batch")
	}
}

func TestPlanInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(8)
	// 1 MB per device: nothing fits.
	topo := cluster.NewUniformTopology(4, 1e6, 100e9)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(32); err == nil {
		t.Error("planned a strategy that cannot fit memory")
	}
}

func TestPlanInFlightMatchesBackwardTraversal(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	r := planFor(t, g, 8, 32, Options{})
	s := r.Strategy
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
	r2 := planFor(t, g, 2, 64, Options{ForcedMicroBatch: 4})
	r8 := planFor(t, g, 8, 64, Options{ForcedMicroBatch: 4})
	if r8.Strategy.NumStages() <= r2.Strategy.NumStages() {
		t.Skipf("planner did not deepen pipeline: %d vs %d stages",
			r8.Strategy.NumStages(), r2.Strategy.NumStages())
	}
	if r8.Strategy.MaxInFlightSamples() <= r2.Strategy.MaxInFlightSamples() {
		t.Errorf("deeper pipeline should hold more samples: %d (8dev) vs %d (2dev)",
			r8.Strategy.MaxInFlightSamples(), r2.Strategy.MaxInFlightSamples())
	}
}

func TestBottleneckTPSDecreasesWithDevices(t *testing.T) {
	g := models.SequentialTransformer(16)
	prev := -1.0
	for _, devs := range []int{2, 4, 8} {
		r := planFor(t, g, devs, 64, Options{})
		if prev > 0 && r.BottleneckTPS > prev*1.05 {
			t.Errorf("devices=%d: bottleneck TPS %g worse than with fewer devices %g",
				devs, r.BottleneckTPS, prev)
		}
		prev = r.BottleneckTPS
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
	p, err := NewPlanner(g, m, Options{PerStageMicroBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Strategy.Validate(g, topo); err != nil {
		t.Fatalf("per-stage strategy invalid: %v", err)
	}
	// The strategy must simulate correctly even with mixed micro-batch
	// sizes (sample-range alignment).
	if _, err := sim.New(g, m).Run(r.Strategy); err != nil {
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

	uni, err := NewPlanner(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ru, err := uni.Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := sm.Run(ru.Strategy)
	if err != nil {
		t.Fatal(err)
	}

	per, err := NewPlanner(g, m, Options{PerStageMicroBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := per.Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := sm.Run(rp.Strategy)
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
	p, err := NewPlanner(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Strategy.Validate(g, topo); err != nil {
		t.Fatalf("non-SP strategy invalid: %v", err)
	}
	if _, err := sim.New(g, m).Run(r.Strategy); err != nil {
		t.Fatalf("non-SP strategy does not simulate: %v", err)
	}
	// The fallback must allow pipelining across the crossing region at 4
	// devices (more than one stage).
	if r.Strategy.NumStages() < 2 {
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
		p, err := NewPlanner(g, m, Options{})
		if err != nil {
			t.Errorf("%s: %v", g.Name(), err)
			continue
		}
		r, err := p.Plan(32)
		if err != nil {
			t.Errorf("%s: %v", g.Name(), err)
			continue
		}
		if err := r.Strategy.Validate(g, topo); err != nil {
			t.Errorf("%s: invalid strategy: %v", g.Name(), err)
			continue
		}
		if r.Strategy.Depth() > r.Strategy.NumStages() {
			t.Errorf("%s: depth %d > stages %d", g.Name(), r.Strategy.Depth(), r.Strategy.NumStages())
		}
		res, err := sim.New(g, m).Run(r.Strategy)
		if err != nil {
			t.Errorf("%s: sim: %v", g.Name(), err)
			continue
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: zero throughput", g.Name())
		}
	}
}
