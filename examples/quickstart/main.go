// Quickstart: plan and simulate graph-pipeline-parallel training for a
// small multi-branch Transformer on 8 simulated GPUs.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/eval"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/trace"

	_ "graphpipe/internal/eval/all"    // register the evaluation backends
	_ "graphpipe/internal/planner/all" // register the planners
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build a computation graph. The model zoo replicates the paper's
	// evaluation models; here: a two-branch Multi-Modal Transformer.
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	g := models.MMT(cfg)
	fmt.Fprintf(w, "model: %s with %d operators\n", g.Name(), g.Len())

	// 2. Describe the cluster: 8 V100-class GPUs, 4 per node (NVLink
	// within a node, InfiniBand between nodes), as on the paper's testbed.
	topo := cluster.NewSummitTopology(8)
	model := costmodel.NewDefault(topo)

	// 3. Discover a graph-pipeline-parallel strategy: the "graphpipe"
	// planner from the registry partitions the graph into a DAG of
	// stages, assigns devices, picks micro-batch sizes, and schedules
	// every forward/backward pass. The zero planner.Options selects the
	// paper's defaults; CostModel shares one cost model with the
	// evaluation below.
	graphpipe, err := planner.Get("graphpipe")
	if err != nil {
		return err
	}
	const miniBatch = 128
	st, _, err := graphpipe.Plan(g, topo, miniBatch, planner.Options{CostModel: model})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstrategy:\n%s\n", st)

	// 4. Execute one training iteration through the evaluation layer. The
	// "sim" backend is the sequential discrete-event simulator; swap the
	// name for "runtime" to replay the same plan on the concurrent
	// message-passing runtime — the report is identical.
	ev, err := eval.Get("sim")
	if err != nil {
		return err
	}
	rep, err := ev.Evaluate(g, topo, st, eval.Options{CostModel: model})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, trace.Summary(st, rep))
	fmt.Fprintf(w, "\npipeline schedule:\n%s", trace.Gantt(st, rep, 100))
	return nil
}
