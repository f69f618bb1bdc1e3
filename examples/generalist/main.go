// Generalist: plan a heterogeneous mixed-modal model (Transformer + MLP +
// embedding branches, in the style of the generalist systems the paper's
// introduction motivates) with per-stage micro-batch sizes enabled — the §6
// feature that lets each modality's stages run at their own compute-
// efficiency sweet spot (Figure 5).
//
// Run with:
//
//	go run ./examples/generalist
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

// modelCfg and miniBatch are the demo's workload; the smoke test shrinks
// them so CI exercises both search modes without the full-size search.
var (
	modelCfg  = models.DefaultGeneralistConfig()
	miniBatch = 256
)

func run(w io.Writer) error {
	g := models.Generalist(modelCfg)
	topo := cluster.NewSummitTopology(8)
	model := costmodel.NewDefault(topo)
	ev, err := eval.Get("sim")
	if err != nil {
		return err
	}
	graphpipe, err := planner.Get("graphpipe")
	if err != nil {
		return err
	}

	for _, perStage := range []bool{false, true} {
		st, _, err := graphpipe.Plan(g, topo, miniBatch,
			planner.Options{CostModel: model, PerStageMicroBatch: perStage})
		if err != nil {
			return err
		}
		rep, err := ev.Evaluate(g, topo, st, eval.Options{CostModel: model})
		if err != nil {
			return err
		}
		mode := "uniform micro-batch "
		if perStage {
			mode = "per-stage micro-batch"
		}
		fmt.Fprintf(w, "%s: %s\n", mode, trace.Summary(st, rep))
		if perStage {
			for i := range st.Stages {
				stage := &st.Stages[i]
				fmt.Fprintf(w, "  S%-2d µB=%-4d ops=%d devices=%v\n",
					i, stage.Config.MicroBatch, stage.Ops.Len(), stage.Devices)
			}
		}
	}
	return nil
}
