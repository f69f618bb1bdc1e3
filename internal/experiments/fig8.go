package experiments

import (
	"fmt"
	"strings"

	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/trace"
)

// CaseStudyResult captures the §7.5 / Figure 8 analysis: GraphPipe versus
// SPP on the synthetic two-branch Transformer of Figure 10, eight devices.
type CaseStudyResult struct {
	GraphPipe Outcome
	SPP       Outcome
	// Depths and micro-batch sizes chosen by each system (the paper: 4 vs
	// 8 and 4 vs 2).
	GPDepth, SPPDepth           int
	GPMicroBatch, SPPMicroBatch int
	// Speedup is GraphPipe/SPP throughput (the paper reports ≈1.2×).
	Speedup float64
	// ParallelOnlySpeedup isolates the depth effect: GraphPipe restricted
	// to SPP's micro-batch size (the paper attributes ≈10% to each gain
	// source).
	ParallelOnlySpeedup float64
	// Gantts are the rendered pipeline schedules (Figure 8's two panels).
	GanttGPP, GanttSPP string
}

// CaseStudy regenerates the case study: both planners on the Figure 10
// model with 8 devices.
func CaseStudy(miniBatch int) (*CaseStudyResult, error) {
	if miniBatch == 0 {
		miniBatch = 64
	}
	g := models.CaseStudy(models.DefaultCaseStudyConfig())
	const devices = 8
	outs := RunGrid([]Job{
		{System: GraphPipe, Graph: g, Devices: devices, MiniBatch: miniBatch},
		{System: PipeDream, Graph: g, Devices: devices, MiniBatch: miniBatch},
	})
	res := &CaseStudyResult{GraphPipe: outs[0], SPP: outs[1]}
	if res.GraphPipe.Failed || res.SPP.Failed {
		return nil, fmt.Errorf("experiments: case study failed: gp=%v spp=%v",
			res.GraphPipe.Err, res.SPP.Err)
	}
	res.GPDepth = res.GraphPipe.Depth
	res.SPPDepth = res.SPP.Depth
	res.GPMicroBatch = res.GraphPipe.MicroBatch
	res.SPPMicroBatch = res.SPP.MicroBatch
	res.Speedup = res.GraphPipe.Throughput / res.SPP.Throughput

	// Ablated arm: GraphPipe at SPP's micro-batch size isolates the
	// concurrent-branch (depth) gain from the micro-batch (compute
	// efficiency) gain.
	parallel := Run(GraphPipe, g, devices, miniBatch, RunOptions{ForcedMicroBatch: res.SPPMicroBatch})
	if !parallel.Failed {
		res.ParallelOnlySpeedup = parallel.Throughput / res.SPP.Throughput
	}

	// Render the two schedules (Figure 8's panels), re-planning through
	// the planner registry and replaying through the evaluator registry to
	// recover the strategy objects the grid discards.
	topo := cluster.NewSummitTopology(devices)
	ev, err := eval.Get("sim")
	if err != nil {
		return nil, err
	}
	gantt := func(name string) string {
		pl, err := planner.Get(name)
		if err != nil {
			return ""
		}
		st, _, err := pl.Plan(g, topo, miniBatch, planner.Options{})
		if err != nil {
			return ""
		}
		out, err := ev.Evaluate(g, topo, st, eval.Options{})
		if err != nil {
			return ""
		}
		return trace.Summary(st, out) + "\n" + trace.Gantt(st, out, 96)
	}
	res.GanttGPP = gantt(string(GraphPipe))
	res.GanttSPP = gantt(string(PipeDream))
	return res, nil
}

// Report renders the case study in the paper's terms.
func (r *CaseStudyResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Case study (Figure 8 / §7.5): two-branch Transformer, 8 devices\n")
	fmt.Fprintf(&sb, "  pipeline depth:    GraphPipe %d vs SPP %d\n", r.GPDepth, r.SPPDepth)
	fmt.Fprintf(&sb, "  micro-batch size:  GraphPipe %d vs SPP %d\n", r.GPMicroBatch, r.SPPMicroBatch)
	fmt.Fprintf(&sb, "  throughput:        GraphPipe %.0f vs SPP %.0f samples/s (%.2fx)\n",
		r.GraphPipe.Throughput, r.SPP.Throughput, r.Speedup)
	fmt.Fprintf(&sb, "  parallel-only arm: %.2fx (depth effect alone)\n", r.ParallelOnlySpeedup)
	if r.GanttSPP != "" {
		fmt.Fprintf(&sb, "\nSPP schedule:\n%s", r.GanttSPP)
	}
	if r.GanttGPP != "" {
		fmt.Fprintf(&sb, "\nGraphPipe schedule:\n%s", r.GanttGPP)
	}
	return sb.String()
}
