package eval_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"

	_ "graphpipe/internal/eval/all"    // register the built-in backends
	_ "graphpipe/internal/planner/all" // register the built-in planners
)

// parityCase is one (model, cluster, mini-batch) cell small enough that
// every registered planner — including Piper's exhaustive search —
// completes quickly.
type parityCase struct {
	name      string
	g         *graph.Graph
	devices   int
	miniBatch int
}

func parityCases() []parityCase {
	mmt := models.DefaultMMTConfig()
	mmt.Branches = 2
	mmt.LayersPerBranch = 4
	return []parityCase{
		{name: "sequential", g: models.SequentialTransformer(8), devices: 4, miniBatch: 32},
		{name: "mmt-2b", g: models.MMT(mmt), devices: 4, miniBatch: 16},
	}
}

// TestBackendParityAllPlanners pins the core contract of the evaluation
// layer: for every registered planner on at least two models, the sim and
// runtime backends — invoked through the shared Evaluator interface —
// produce identical Reports, field for field. The virtual-clock runtime
// and the greedy simulator are independent implementations of the same
// execution semantics; any divergence is a bug in one of them.
func TestBackendParityAllPlanners(t *testing.T) {
	backends := eval.Names()
	if len(backends) < 2 {
		t.Fatalf("want at least the sim and runtime backends, registered: %v", backends)
	}
	for _, tc := range parityCases() {
		for _, plName := range planner.Names() {
			t.Run(tc.name+"/"+plName, func(t *testing.T) {
				pl, err := planner.Get(plName)
				if err != nil {
					t.Fatal(err)
				}
				topo := cluster.NewSummitTopology(tc.devices)
				model := costmodel.NewDefault(topo)
				st, _, err := pl.Plan(tc.g, topo, tc.miniBatch, planner.Options{CostModel: model})
				if err != nil {
					t.Fatalf("planning failed: %v", err)
				}

				reports := make(map[string]*eval.Report, len(backends))
				for _, name := range backends {
					ev, err := eval.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := ev.Evaluate(tc.g, topo, st, eval.Options{CostModel: model})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Backend != name {
						t.Errorf("report names backend %q, evaluated on %q", rep.Backend, name)
					}
					if rep.Throughput <= 0 || rep.IterationTime <= 0 {
						t.Fatalf("%s: degenerate report: %+v", name, rep)
					}
					reports[name] = rep
				}
				base := reports[backends[0]]
				for _, name := range backends[1:] {
					got := *reports[name]
					got.Backend = base.Backend // the only field allowed to differ
					if !reflect.DeepEqual(&got, base) {
						t.Errorf("%s and %s disagree:\n%+v\nvs\n%+v",
							backends[0], name, base, reports[name])
					}
				}
			})
		}
	}
}

// TestBackendParityPerLevelLatency pins that both backends charge a
// transfer the latency of the level whose link bottlenecks it. On a
// two-level spec whose outer latency is 100× the inner one, sim and
// runtime agree report for report, and the outer latency reaches the
// iteration time: the same strategy runs slower than on a copy of the
// spec that gives both levels the inner latency.
func TestBackendParityPerLevelLatency(t *testing.T) {
	const spec = "topo:explicit/classes=v:16e9:112e12:900e9" +
		"/levels=node:2:150e9:150e9:5e-6+rack:4:12.5e9:12.5e9:%s/assign=4xv"
	slow, err := cluster.ParseTopology(fmt.Sprintf(spec, "5e-4"))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cluster.ParseTopology(fmt.Sprintf(spec, "5e-6"))
	if err != nil {
		t.Fatal(err)
	}
	g := models.SequentialTransformer(8)
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := pl.Plan(g, slow, 32, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumStages() < 2 {
		t.Fatalf("plan has %d stage(s); the test needs a stage boundary", st.NumStages())
	}
	evaluate := func(backend string, topo *cluster.Topology) *eval.Report {
		t.Helper()
		ev, err := eval.Get(backend)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ev.Evaluate(g, topo, st, eval.Options{})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		return rep
	}
	simRep, rtRep := evaluate("sim", slow), evaluate("runtime", slow)
	rtRep.Backend = simRep.Backend
	if !reflect.DeepEqual(rtRep, simRep) {
		t.Errorf("sim and runtime disagree:\n%+v\nvs\n%+v", simRep, rtRep)
	}
	if flat := evaluate("sim", fast); simRep.IterationTime <= flat.IterationTime {
		t.Errorf("iteration %.9g s with the 100x outer latency, %.9g s without: the outer level's latency was not charged",
			simRep.IterationTime, flat.IterationTime)
	}
}

// TestArtifactRoundTripReEvaluation pins the persistence contract: plan →
// marshal → unmarshal → re-evaluate must equal direct evaluation exactly,
// on every backend.
func TestArtifactRoundTripReEvaluation(t *testing.T) {
	// Plan on a graph models.Build can rebuild from artifact metadata
	// alone: the 2-branch MMT on 4 devices.
	const (
		modelName = "mmt"
		branches  = 2
		devices   = 4
	)
	g, miniBatch, err := models.Build(modelName, branches, devices)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewSummitTopology(devices)
	model := costmodel.NewDefault(topo)
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	st, stats, err := pl.Plan(g, topo, miniBatch, planner.Options{CostModel: model})
	if err != nil {
		t.Fatal(err)
	}

	data, err := strategy.EncodeArtifact(&strategy.Artifact{
		Model:    modelName,
		Branches: branches,
		Devices:  devices,
		Planner:  strategy.PlannerMeta{Name: pl.Name(), DPStates: stats.DPStates},
		Strategy: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := strategy.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.CheckPlanner(planner.Names()); err != nil {
		t.Fatal(err)
	}
	// The artifact's metadata alone must rebuild the evaluation context.
	g2, _, err := models.Build(art.Model, art.Branches, art.Devices)
	if err != nil {
		t.Fatal(err)
	}
	topo2 := cluster.NewSummitTopology(art.Devices)
	if err := art.Validate(g2, topo2); err != nil {
		t.Fatal(err)
	}

	for _, name := range eval.Names() {
		ev, err := eval.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Evaluate(g, topo, st, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := ev.Evaluate(g2, topo2, art.Strategy, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, replayed) {
			t.Errorf("%s: round-tripped strategy evaluates differently:\n%+v\nvs\n%+v",
				name, direct, replayed)
		}
		if direct.Throughput != replayed.Throughput {
			t.Errorf("%s: throughput %g != %g after round-trip", name,
				replayed.Throughput, direct.Throughput)
		}
	}
}

// TestArtifactLoadFailures covers the three load-time error classes end
// to end as the CLI would hit them.
func TestArtifactLoadFailures(t *testing.T) {
	if _, err := strategy.DecodeArtifact([]byte("{broken")); !errors.Is(err, strategy.ErrCorruptArtifact) {
		t.Errorf("corrupt file: err = %v", err)
	}
	if _, err := strategy.DecodeArtifact([]byte(`{"version": 99, "strategy": null}`)); !errors.Is(err, strategy.ErrUnknownVersion) {
		t.Errorf("unknown version: err = %v", err)
	}
	a := &strategy.Artifact{Planner: strategy.PlannerMeta{Name: "no-such-planner"}}
	if err := a.CheckPlanner(planner.Names()); !errors.Is(err, strategy.ErrUnknownPlanner) {
		t.Errorf("unknown planner: err = %v", err)
	}
}

// TestSimResultMatchesReport spans the two derivations of the aggregate
// metrics: sim.Run computes its Result analytically (busy = task count ×
// pass time, iteration end from stage clocks) while eval.Assemble
// re-derives everything from the raw timeline. Direct sim.Result
// consumers (the engine's tests, the lower-level examples) and eval-layer
// consumers must keep seeing the same numbers.
func TestSimResultMatchesReport(t *testing.T) {
	tc := parityCases()[1] // the branched model exercises parallel stages
	topo := cluster.NewSummitTopology(tc.devices)
	model := costmodel.NewDefault(topo)
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := pl.Plan(tc.g, topo, tc.miniBatch, planner.Options{CostModel: model})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(tc.g, model).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.Get("sim")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Evaluate(tc.g, topo, st, eval.Options{CostModel: model})
	if err != nil {
		t.Fatal(err)
	}

	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	if !closeEnough(res.IterationTime, rep.IterationTime) {
		t.Errorf("IterationTime: sim %.15g vs report %.15g", res.IterationTime, rep.IterationTime)
	}
	if !closeEnough(res.Throughput, rep.Throughput) {
		t.Errorf("Throughput: sim %.15g vs report %.15g", res.Throughput, rep.Throughput)
	}
	if !closeEnough(res.ComputeSpan, rep.ComputeSpan) {
		t.Errorf("ComputeSpan: sim %.15g vs report %.15g", res.ComputeSpan, rep.ComputeSpan)
	}
	if !closeEnough(res.AllreduceTime, rep.AllreduceTime) {
		t.Errorf("AllreduceTime: sim %.15g vs report %.15g", res.AllreduceTime, rep.AllreduceTime)
	}
	if len(res.Stages) != len(rep.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(res.Stages), len(rep.Stages))
	}
	for i := range res.Stages {
		s, r := res.Stages[i], rep.Stages[i]
		if !closeEnough(s.ComputeTime, r.ComputeTime) || !closeEnough(s.IdleTime, r.IdleTime) ||
			!closeEnough(s.PeakMemory, r.PeakMemory) || s.PeakInFlightSamples != r.PeakInFlightSamples {
			t.Errorf("stage %d: sim %+v vs report %+v", i, s, r)
		}
	}
}

// TestRegistryErrors pins the self-diagnosing unknown-backend error.
func TestRegistryErrors(t *testing.T) {
	_, err := eval.Get("no-such-backend")
	if err == nil {
		t.Fatal("resolved an unregistered backend")
	}
	for _, name := range eval.Names() {
		if got, gerr := eval.Get(name); gerr != nil || got.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, got, gerr)
		}
	}
}

// TestResolveModelRejectsForeignTopology guards against evaluating with a
// cost model built over a differently-sized cluster.
func TestResolveModelRejectsForeignTopology(t *testing.T) {
	small := cluster.NewSummitTopology(4)
	big := cluster.NewSummitTopology(8)
	if _, err := eval.ResolveModel(big, eval.Options{CostModel: costmodel.NewDefault(small)}); err == nil {
		t.Error("accepted a cost model over the wrong topology")
	}
	m, err := eval.ResolveModel(big, eval.Options{})
	if err != nil || m == nil {
		t.Errorf("default model resolution failed: %v", err)
	}
}
