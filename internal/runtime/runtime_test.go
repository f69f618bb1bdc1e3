package runtime

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/schedule"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"

	_ "graphpipe/internal/planner/all" // register the planners
)

// planned returns a GraphPipe strategy for the model plus the shared cost
// model.
func planned(t testing.TB, g *graph.Graph, devices, mini int) (*strategy.Strategy, costmodel.Model) {
	t.Helper()
	topo := cluster.NewSummitTopology(devices)
	m := costmodel.NewDefault(topo)
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := pl.Plan(g, topo, mini, planner.Options{CostModel: m})
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

func TestRuntimeMatchesSimulatorChain(t *testing.T) {
	g := models.SequentialTransformer(8)
	st, m := planned(t, g, 4, 32)
	simRes, err := sim.New(g, m).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	rtRes, err := New(g, m, Options{}).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rtRes.IterationTime-simRes.IterationTime) / simRes.IterationTime; rel > 1e-9 {
		t.Errorf("runtime %.9g vs sim %.9g (rel %.2g): implementations disagree",
			rtRes.IterationTime, simRes.IterationTime, rel)
	}
}

func TestRuntimeMatchesSimulatorBranches(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	st, m := planned(t, g, 8, 32)
	simRes, err := sim.New(g, m).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	rtRes, err := New(g, m, Options{}).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rtRes.IterationTime-simRes.IterationTime) / simRes.IterationTime; rel > 1e-9 {
		t.Errorf("runtime %.9g vs sim %.9g on branches", rtRes.IterationTime, simRes.IterationTime)
	}
	if rtRes.MessagesSent == 0 {
		t.Error("no messages exchanged on a multi-stage pipeline")
	}
}

func TestRuntimeDeterministic(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 2
	g := models.MMT(cfg)
	st, m := planned(t, g, 4, 16)
	rt := New(g, m, Options{})
	first, err := rt.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := rt.Run(st)
		if err != nil {
			t.Fatal(err)
		}
		if res.IterationTime != first.IterationTime {
			t.Fatalf("run %d: %.12g != %.12g — virtual clocks must be schedule-determined",
				i, res.IterationTime, first.IterationTime)
		}
	}
}

func TestRuntimeDetectsDeadlock(t *testing.T) {
	// Hand-build a strategy whose stage-1 schedule demands gradients that
	// stage 2 will never send first: swap stage 1's cool-down so a
	// backward precedes its forward... that violates C4 and Validate
	// catches it. Instead, create a real cross-stage deadlock: two stages
	// with artificial mutual dependencies via extra edges would be cyclic
	// (also rejected). The honest reachable case: a stage whose in-flight
	// window is too small for the pipeline depth, forcing it to wait for a
	// gradient that cannot arrive until it sends more forwards.
	b := graph.NewBuilder("deadlock")
	in := b.AddOp(graph.Op{Name: "in", Kind: graph.OpInput, OutputBytes: 8})
	l1 := b.AddOp(graph.Op{Name: "l1", Kind: graph.OpLinear, FwdFLOPs: 1e6, OutputBytes: 8})
	l2 := b.AddOp(graph.Op{Name: "l2", Kind: graph.OpLinear, FwdFLOPs: 1e6, OutputBytes: 8})
	b.Chain(in, l1, l2)
	g := b.MustBuild()
	topo := cluster.NewSummitTopology(2)
	m := costmodel.NewDefault(topo)

	mini := 8
	cfg := schedule.Config{MicroBatch: 1, K: 1}
	// Stage 0 runs a 1-in-flight schedule (F0 B0 F1 B1...) but stage 1
	// needs F0..F1 before B0 can come back: stage 0 blocks forever on B0's
	// gradient after F0.
	tasks0, err := schedule.BuildTasks(cfg, mini, 1)
	if err != nil {
		t.Fatal(err)
	}
	tasks1, err := schedule.BuildTasks(cfg, mini, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Force stage 1 to need two forwards before its first backward by
	// giving it a 2-warm-up schedule; stage 0's 1-in-flight schedule can
	// only supply one. (Stage 1's B0 waits on F1 from stage 0; stage 0's
	// next task after F0 is B0, waiting on stage 1's B0.)
	st := &strategy.Strategy{
		Planner:   "deadlock-test",
		MiniBatch: mini,
		Stages: []strategy.Stage{
			{ID: 0, Ops: graph.NodeSetOf(in, l1), Config: cfg,
				Devices: []cluster.DeviceID{0}, InFlightSamples: 1, Tasks: tasks0},
			{ID: 1, Ops: graph.NodeSetOf(l2), Config: cfg,
				Devices: []cluster.DeviceID{1}, InFlightSamples: 2, Tasks: tasks1},
		},
	}
	if err := st.BuildEdges(g); err != nil {
		t.Fatal(err)
	}
	// Make stage 1's warm-up require two forwards by rewriting its task
	// order: F0 F1 B0 ... — BuildTasks(…, 2) already does this.
	rt := New(g, m, Options{Timeout: 300 * time.Millisecond})
	_, err = rt.Run(st)
	if err == nil {
		t.Fatal("deadlocked schedule executed successfully")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The timeout must surface as a structured diagnosis naming the stuck
	// stage and the dependencies that never arrived — not a bare timeout.
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("error is not a *DeadlockError: %#v", err)
	}
	if derr.What != "activations" && derr.What != "gradients" {
		t.Fatalf("DeadlockError.What = %q", derr.What)
	}
	if len(derr.Pending) == 0 {
		t.Fatal("DeadlockError names no pending dependencies")
	}
	// Whichever stage's timeout fires first, the pending dependency must
	// name the other stage and a sample range inside the blocked task.
	for _, p := range derr.Pending {
		if p.From == derr.Stage {
			t.Fatalf("pending dependency names the stuck stage itself: %+v", p)
		}
		if p.MissingStart >= p.MissingEnd {
			t.Fatalf("empty missing range: %+v", p)
		}
		if p.MissingStart < derr.Task.Start || p.MissingEnd > derr.Task.End {
			t.Fatalf("missing range %+v outside blocked task [%d,%d)",
				p, derr.Task.Start, derr.Task.End)
		}
	}
	if !strings.Contains(err.Error(), "pending") {
		t.Fatalf("rendered error lacks the dependency diagnosis: %v", err)
	}
}

func TestRuntimeRejectsInvalidStrategy(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(2)
	m := costmodel.NewDefault(topo)
	st := &strategy.Strategy{Planner: "bad", MiniBatch: 8}
	if _, err := New(g, m, Options{}).Run(st); err == nil {
		t.Error("accepted empty strategy")
	}
}

func TestMessageCountsMatchSchedule(t *testing.T) {
	g := models.SequentialTransformer(8)
	st, m := planned(t, g, 4, 32)
	res, err := New(g, m, Options{}).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	// Every forward of a non-sink stage sends one activation per
	// successor; every backward of a non-source stage sends one gradient
	// per predecessor.
	want := 0
	for i := range st.Stages {
		n := st.MiniBatch / st.Stages[i].Config.MicroBatch
		want += n * len(st.Succ[i]) // activations
		want += n * len(st.Pred[i]) // gradients
	}
	if res.MessagesSent != want {
		t.Errorf("messages = %d, want %d", res.MessagesSent, want)
	}
}

// TestRuntimeMatchesSimulatorMixedMicroBatch cross-validates the two
// executors on a strategy whose stages use different micro-batch sizes
// (Figure 5's per-stage sizes): the sample-range alignment logic of both
// must agree exactly.
func TestRuntimeMatchesSimulatorMixedMicroBatch(t *testing.T) {
	b := graph.NewBuilder("mixed")
	in := b.AddOp(graph.Op{Name: "in", Kind: graph.OpInput, OutputBytes: 1e4})
	l1 := b.AddOp(graph.Op{Name: "l1", Kind: graph.OpLinear,
		FwdFLOPs: 2e9, ParamBytes: 1e7, ActivationBytes: 1e5, OutputBytes: 1e4})
	l2 := b.AddOp(graph.Op{Name: "l2", Kind: graph.OpLinear,
		FwdFLOPs: 4e9, ParamBytes: 2e7, ActivationBytes: 2e5, OutputBytes: 1e4})
	l3 := b.AddOp(graph.Op{Name: "l3", Kind: graph.OpLinear,
		FwdFLOPs: 8e9, ParamBytes: 4e7, ActivationBytes: 1e5, OutputBytes: 1e3})
	b.Chain(in, l1, l2, l3)
	g := b.MustBuild()

	topo := cluster.NewSummitTopology(3)
	m := costmodel.NewDefault(topo)
	mini := 16
	// Stage micro-batches 1, 2, 4 as in Figure 5.
	mk := func(id strategy.StageID, ops graph.NodeSet, dev cluster.DeviceID, b, inflight int) strategy.Stage {
		cfg := schedule.Config{MicroBatch: b, K: 1}
		tasks, err := schedule.BuildTasks(cfg, mini, inflight)
		if err != nil {
			t.Fatal(err)
		}
		return strategy.Stage{ID: id, Ops: ops, Config: cfg,
			Devices: []cluster.DeviceID{dev}, InFlightSamples: inflight, Tasks: tasks}
	}
	// In-flight per Table 2 (backward traversal).
	i3 := schedule.ComputeInFlight(schedule.Config{MicroBatch: 4, K: 1}, nil)
	i2 := schedule.ComputeInFlight(schedule.Config{MicroBatch: 2, K: 1},
		[]schedule.Successor{{Config: schedule.Config{MicroBatch: 4, K: 1}, InFlight: i3}})
	i1 := schedule.ComputeInFlight(schedule.Config{MicroBatch: 1, K: 1},
		[]schedule.Successor{{Config: schedule.Config{MicroBatch: 2, K: 1}, InFlight: i2}})
	st := &strategy.Strategy{Planner: "mixed", MiniBatch: mini}
	st.Stages = append(st.Stages,
		mk(0, graph.NodeSetOf(in, l1), 0, 1, i1),
		mk(1, graph.NodeSetOf(l2), 1, 2, i2),
		mk(2, graph.NodeSetOf(l3), 2, 4, i3))
	if err := st.BuildEdges(g); err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.New(g, m).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	rtRes, err := New(g, m, Options{}).Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rtRes.IterationTime-simRes.IterationTime) / simRes.IterationTime; rel > 1e-9 {
		t.Errorf("mixed micro-batch: runtime %.9g vs sim %.9g", rtRes.IterationTime, simRes.IterationTime)
	}
}
