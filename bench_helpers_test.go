package graphpipe_test

import (
	"graphpipe/internal/experiments"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
)

// runCoreWith plans with the GraphPipe planner (resolved through the
// planner registry by the harness) with the sink-anchored-split ablation
// toggled, reporting an experiments.Outcome for uniform handling in the
// benchmarks.
func runCoreWith(g *graph.Graph, devices, miniBatch int, disableAnchored bool) experiments.Outcome {
	return experiments.Run(experiments.GraphPipe, g, devices, miniBatch,
		experiments.RunOptions{Planner: planner.Options{DisableSinkAnchoredSplits: disableAnchored}})
}

// runOnBackend plans with the GraphPipe planner and evaluates on a named
// backend from the eval registry, so the benchmarks can compare the
// evaluation substrates themselves.
func runOnBackend(g *graph.Graph, devices, miniBatch int, backend string) experiments.Outcome {
	return experiments.Run(experiments.GraphPipe, g, devices, miniBatch,
		experiments.RunOptions{Backend: backend})
}
