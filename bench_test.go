// Package graphpipe's benchmark harness regenerates every table and figure
// of the paper's evaluation (§7) as testing.B benchmarks. Each benchmark
// runs the full pipeline — planner search plus a simulated training
// iteration — for one experiment and reports the paper's metrics as custom
// benchmark outputs (samples/s, search seconds, pipeline depth, speedups),
// so `go test -bench=.` prints the rows behind Figures 6–9, Table 1, and
// the Appendix A.3 parity table. EXPERIMENTS.md records a captured run and
// compares it against the paper's numbers.
//
// Absolute throughputs come from the simulated V100 cluster and are not
// expected to match the paper's testbed; the reproduced artifacts are the
// relative shapes (who wins, how gaps scale, where Piper fails).
package graphpipe_test

import (
	"fmt"
	"testing"
	"time"

	"graphpipe/internal/experiments"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
)

func modelGraph(model string) (*graph.Graph, error) {
	switch model {
	case "mmt":
		return models.MMT(models.DefaultMMTConfig()), nil
	case "mmt-2b":
		cfg := models.DefaultMMTConfig()
		cfg.Branches = 2
		return models.MMT(cfg), nil
	case "dlrm":
		return models.DLRM(models.DefaultDLRMConfig()), nil
	case "candle-uno":
		return models.CANDLEUno(models.DefaultCANDLEUnoConfig()), nil
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}

// reportOutcome attaches one system's metrics to the benchmark.
func reportOutcome(b *testing.B, prefix string, o experiments.Outcome) {
	b.Helper()
	if o.Failed {
		b.ReportMetric(0, prefix+"_samples/s")
		return
	}
	b.ReportMetric(o.Throughput, prefix+"_samples/s")
	b.ReportMetric(o.SearchTime.Seconds(), prefix+"_search_s")
	b.ReportMetric(float64(o.Depth), prefix+"_depth")
}

// --- Figure 6: end-to-end throughput versus device count -----------------
//
// One benchmark per (model, device count) point; each iteration runs both
// planners and one simulated training iteration, and the reported metrics
// are the figure's y-values. Piper is covered by the Table 1 benchmarks
// (its search time dominates and, for DLRM and CANDLE-Uno, it fails).

func benchFig6(b *testing.B, model string, devices int) {
	g, err := modelGraph(model)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := models.PaperMiniBatch(model, devices)
	if err != nil {
		b.Fatal(err)
	}
	var gp, pd experiments.Outcome
	for i := 0; i < b.N; i++ {
		gp = experiments.Run(experiments.GraphPipe, g, devices, mb, experiments.RunOptions{})
		pd = experiments.Run(experiments.PipeDream, g, devices, mb, experiments.RunOptions{})
	}
	if gp.Failed || pd.Failed {
		b.Fatalf("planning failed: gp=%v pd=%v", gp.Err, pd.Err)
	}
	reportOutcome(b, "graphpipe", gp)
	reportOutcome(b, "pipedream", pd)
	b.ReportMetric(gp.Throughput/pd.Throughput, "speedup_x")
}

func BenchmarkFig6MMT4(b *testing.B)  { benchFig6(b, "mmt", 4) }
func BenchmarkFig6MMT8(b *testing.B)  { benchFig6(b, "mmt", 8) }
func BenchmarkFig6MMT16(b *testing.B) { benchFig6(b, "mmt", 16) }
func BenchmarkFig6MMT32(b *testing.B) { benchFig6(b, "mmt", 32) }

func BenchmarkFig6DLRM4(b *testing.B)  { benchFig6(b, "dlrm", 4) }
func BenchmarkFig6DLRM8(b *testing.B)  { benchFig6(b, "dlrm", 8) }
func BenchmarkFig6DLRM16(b *testing.B) { benchFig6(b, "dlrm", 16) }
func BenchmarkFig6DLRM32(b *testing.B) { benchFig6(b, "dlrm", 32) }

func BenchmarkFig6CANDLE4(b *testing.B)  { benchFig6(b, "candle-uno", 4) }
func BenchmarkFig6CANDLE8(b *testing.B)  { benchFig6(b, "candle-uno", 8) }
func BenchmarkFig6CANDLE16(b *testing.B) { benchFig6(b, "candle-uno", 16) }
func BenchmarkFig6CANDLE32(b *testing.B) { benchFig6(b, "candle-uno", 32) }

// --- Table 1: planner search times ----------------------------------------
//
// One benchmark per (model, devices); the per-planner search seconds are
// the table's cells. Piper reports 0 samples/s where the paper prints ✗
// (DLRM and CANDLE-Uno), and the MMT column uses the two-branch variant as
// in §7.2.

func benchTable1(b *testing.B, model string, devices int) {
	g, err := modelGraph(model)
	if err != nil {
		b.Fatal(err)
	}
	paperModel := model
	if model == "mmt-2b" {
		paperModel = "mmt"
	}
	mb, err := models.PaperMiniBatch(paperModel, devices)
	if err != nil {
		b.Fatal(err)
	}
	var gp, pd, pi experiments.Outcome
	for i := 0; i < b.N; i++ {
		gp = experiments.Run(experiments.GraphPipe, g, devices, mb, experiments.RunOptions{})
		pd = experiments.Run(experiments.PipeDream, g, devices, mb, experiments.RunOptions{})
		pi = experiments.Run(experiments.Piper, g, devices, mb,
			experiments.RunOptions{PiperTimeout: 10 * time.Minute})
	}
	b.ReportMetric(gp.SearchTime.Seconds(), "graphpipe_search_s")
	b.ReportMetric(pd.SearchTime.Seconds(), "pipedream_search_s")
	if pi.Failed {
		b.ReportMetric(-1, "piper_search_s") // the paper's ✗
	} else {
		b.ReportMetric(pi.SearchTime.Seconds(), "piper_search_s")
	}
	if !gp.Failed && gp.SearchTime > 0 {
		b.ReportMetric(pd.SearchTime.Seconds()/gp.SearchTime.Seconds(), "pipedream_over_graphpipe_x")
	}
}

func BenchmarkTable1MMT4(b *testing.B)  { benchTable1(b, "mmt-2b", 4) }
func BenchmarkTable1MMT8(b *testing.B)  { benchTable1(b, "mmt-2b", 8) }
func BenchmarkTable1MMT16(b *testing.B) { benchTable1(b, "mmt-2b", 16) }
func BenchmarkTable1MMT32(b *testing.B) { benchTable1(b, "mmt-2b", 32) }

func BenchmarkTable1DLRM4(b *testing.B)  { benchTable1(b, "dlrm", 4) }
func BenchmarkTable1DLRM32(b *testing.B) { benchTable1(b, "dlrm", 32) }

func BenchmarkTable1CANDLE4(b *testing.B)  { benchTable1(b, "candle-uno", 4) }
func BenchmarkTable1CANDLE32(b *testing.B) { benchTable1(b, "candle-uno", 32) }

// --- Figure 7 (left): throughput versus parallel branch count -------------

func benchFig7Branches(b *testing.B, branches, devices int) {
	cfg := models.DefaultCANDLEUnoConfig()
	cfg.Branches = branches
	g := models.CANDLEUno(cfg)
	mb := 1024 * devices
	var gp, pd experiments.Outcome
	for i := 0; i < b.N; i++ {
		gp = experiments.Run(experiments.GraphPipe, g, devices, mb, experiments.RunOptions{})
		pd = experiments.Run(experiments.PipeDream, g, devices, mb, experiments.RunOptions{})
	}
	if gp.Failed || pd.Failed {
		b.Fatalf("planning failed: gp=%v pd=%v", gp.Err, pd.Err)
	}
	reportOutcome(b, "graphpipe", gp)
	reportOutcome(b, "pipedream", pd)
	b.ReportMetric(gp.Throughput/pd.Throughput, "normalized_x")
}

func BenchmarkFig7Branches2x8(b *testing.B)  { benchFig7Branches(b, 2, 8) }
func BenchmarkFig7Branches4x8(b *testing.B)  { benchFig7Branches(b, 4, 8) }
func BenchmarkFig7Branches8x8(b *testing.B)  { benchFig7Branches(b, 8, 8) }
func BenchmarkFig7Branches16x8(b *testing.B) { benchFig7Branches(b, 16, 8) }
func BenchmarkFig7Branches8x16(b *testing.B) { benchFig7Branches(b, 8, 16) }
func BenchmarkFig7Branches16x16(b *testing.B) {
	benchFig7Branches(b, 16, 16)
}

// --- Figure 7 (right): throughput at fixed micro-batch sizes --------------

func benchFig7Micro(b *testing.B, micro int) {
	g := models.MMT(models.DefaultMMTConfig())
	const devices, miniBatch = 8, 128
	var gp, pd experiments.Outcome
	for i := 0; i < b.N; i++ {
		gp = experiments.Run(experiments.GraphPipe, g, devices, miniBatch,
			experiments.RunOptions{ForcedMicroBatch: micro})
		pd = experiments.Run(experiments.PipeDream, g, devices, miniBatch,
			experiments.RunOptions{ForcedMicroBatch: micro})
	}
	if gp.Failed || pd.Failed {
		b.Fatalf("planning failed: gp=%v pd=%v", gp.Err, pd.Err)
	}
	reportOutcome(b, "graphpipe", gp)
	reportOutcome(b, "pipedream", pd)
	b.ReportMetric(gp.Throughput/pd.Throughput, "speedup_x")
}

func BenchmarkFig7Micro1(b *testing.B)  { benchFig7Micro(b, 1) }
func BenchmarkFig7Micro2(b *testing.B)  { benchFig7Micro(b, 2) }
func BenchmarkFig7Micro4(b *testing.B)  { benchFig7Micro(b, 4) }
func BenchmarkFig7Micro8(b *testing.B)  { benchFig7Micro(b, 8) }
func BenchmarkFig7Micro16(b *testing.B) { benchFig7Micro(b, 16) }

// --- Figure 8 / §7.5: case study -------------------------------------------

func BenchmarkFig8CaseStudy(b *testing.B) {
	var res *experiments.CaseStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.CaseStudy(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup, "graphpipe_over_spp_x")
	b.ReportMetric(res.ParallelOnlySpeedup, "parallel_only_x")
	b.ReportMetric(float64(res.GPDepth), "graphpipe_depth")
	b.ReportMetric(float64(res.SPPDepth), "spp_depth")
	b.ReportMetric(float64(res.GPMicroBatch), "graphpipe_microbatch")
	b.ReportMetric(float64(res.SPPMicroBatch), "spp_microbatch")
}

// --- Figure 9: ablation at 32 GPUs -----------------------------------------

func benchFig9(b *testing.B, model string) {
	g, err := modelGraph(model)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := models.PaperMiniBatch(model, 32)
	if err != nil {
		b.Fatal(err)
	}
	var spp, par, full experiments.Outcome
	for i := 0; i < b.N; i++ {
		spp = experiments.Run(experiments.PipeDream, g, 32, mb, experiments.RunOptions{})
		if spp.Failed {
			b.Fatal(spp.Err)
		}
		par = experiments.Run(experiments.GraphPipe, g, 32, mb,
			experiments.RunOptions{ForcedMicroBatch: spp.MicroBatch})
		full = experiments.Run(experiments.GraphPipe, g, 32, mb, experiments.RunOptions{})
	}
	if par.Failed || full.Failed {
		b.Fatalf("ablation arms failed: %v %v", par.Err, full.Err)
	}
	b.ReportMetric(spp.Throughput, "spp_samples/s")
	b.ReportMetric(par.Throughput, "parallel_samples/s")
	b.ReportMetric(full.Throughput, "graphpipe_samples/s")
	b.ReportMetric(par.Throughput/spp.Throughput, "parallel_x")
	b.ReportMetric(full.Throughput/spp.Throughput, "graphpipe_x")
}

func BenchmarkFig9AblationMMT(b *testing.B)    { benchFig9(b, "mmt") }
func BenchmarkFig9AblationDLRM(b *testing.B)   { benchFig9(b, "dlrm") }
func BenchmarkFig9AblationCANDLE(b *testing.B) { benchFig9(b, "candle-uno") }

// --- Appendix A.3: sequential Transformer parity ---------------------------

func benchA3(b *testing.B, devices int) {
	g := models.SequentialTransformer(32)
	mb, err := models.PaperMiniBatch("mmt", devices)
	if err != nil {
		b.Fatal(err)
	}
	var gp, pd experiments.Outcome
	for i := 0; i < b.N; i++ {
		gp = experiments.Run(experiments.GraphPipe, g, devices, mb, experiments.RunOptions{})
		pd = experiments.Run(experiments.PipeDream, g, devices, mb, experiments.RunOptions{})
	}
	if gp.Failed || pd.Failed {
		b.Fatalf("planning failed: gp=%v pd=%v", gp.Err, pd.Err)
	}
	reportOutcome(b, "graphpipe", gp)
	reportOutcome(b, "pipedream", pd)
	b.ReportMetric(gp.Throughput/pd.Throughput, "parity_x")
}

func BenchmarkA3Sequential4(b *testing.B)  { benchA3(b, 4) }
func BenchmarkA3Sequential8(b *testing.B)  { benchA3(b, 8) }
func BenchmarkA3Sequential16(b *testing.B) { benchA3(b, 16) }
func BenchmarkA3Sequential32(b *testing.B) { benchA3(b, 32) }

// --- Evaluation backends ----------------------------------------------------
//
// One benchmark per registered evaluation backend: the same plan replayed
// on the sequential simulator and the concurrent message-passing runtime.
// The reported samples/s must agree (the eval parity tests pin equality);
// the benchmark compares the evaluators' own wall-clock cost.

func benchEvalBackend(b *testing.B, backend string) {
	g := models.MMT(models.DefaultMMTConfig())
	const devices, miniBatch = 8, 128
	var out experiments.Outcome
	for i := 0; i < b.N; i++ {
		out = runOnBackend(g, devices, miniBatch, backend)
	}
	if out.Failed {
		b.Fatal(out.Err)
	}
	b.ReportMetric(out.Throughput, backend+"_samples/s")
}

func BenchmarkEvalBackendSim(b *testing.B)     { benchEvalBackend(b, "sim") }
func BenchmarkEvalBackendRuntime(b *testing.B) { benchEvalBackend(b, "runtime") }

// --- Ablations of this reproduction's design choices -----------------------
//
// BenchmarkAblationSinkAnchored quantifies the sink-anchored parallel
// splits (docs/ARCHITECTURE.md, "The partition space"): without them, the
// merge operators are stranded in their own stage and the planner cannot
// form the paper's "branch tail + concatenation" stages.

func BenchmarkAblationSinkAnchored(b *testing.B) {
	g := models.MMT(models.DefaultMMTConfig())
	const devices, miniBatch = 16, 256
	run := func(disable bool) experiments.Outcome {
		return runCoreWith(g, devices, miniBatch, disable)
	}
	var with, without experiments.Outcome
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	if with.Failed || without.Failed {
		b.Fatalf("ablation failed: %v %v", with.Err, without.Err)
	}
	b.ReportMetric(with.Throughput, "anchored_samples/s")
	b.ReportMetric(without.Throughput, "no_anchored_samples/s")
	b.ReportMetric(with.Throughput/without.Throughput, "anchored_gain_x")
}
