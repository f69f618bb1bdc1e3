// Package eval is the shared evaluation layer over the two execution
// substrates in this repository: the sequential discrete-event simulator
// (package sim) and the concurrent message-passing runtime (package
// runtime). The paper validates every plan twice — analytically with the
// §6 cost model and end-to-end on the distributed runtime of §7 — and
// before this layer existed the two code paths duplicated dependency
// tracking, cost-model plumbing, and result reporting.
//
// An Evaluator executes one synchronous training iteration of a strategy
// and returns a Report: iteration time, throughput, per-stage
// compute/idle/peak-memory, and the full task timeline. Backends are
// resolved by name through a registry mirroring internal/planner, so a
// plan produced once (and persisted as a strategy.Artifact) can be
// re-evaluated on any backend: commands, the experiment harness, and the
// benchmarks all go through eval.Get.
//
// Both built-in backends report through the shared Assemble helper, which
// derives every Report field from the backend's raw task timeline and the
// cost model. Because the two engines compute identical task times (the
// virtual-clock protocol of package runtime reproduces the earliest-finish
// execution that package sim computes greedily), their Reports are
// identical field-for-field — a property the parity tests pin, so each
// backend checks the other.
package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// TaskRecord is one executed task in the timeline.
type TaskRecord struct {
	Stage      strategy.StageID
	Task       schedule.Task
	Start, End float64
}

// StageReport aggregates per-stage results over one iteration.
type StageReport struct {
	// ComputeTime is the stage's total busy time.
	ComputeTime float64
	// IdleTime is the stage's bubble time: the compute span minus busy
	// time.
	IdleTime float64
	// PeakMemory is the per-device high-water mark: weights + retained
	// activations at the worst instant.
	PeakMemory float64
	// PeakInFlightSamples is the observed maximum of forwarded-but-not-
	// backwarded samples.
	PeakInFlightSamples int
}

// Report is the outcome of evaluating one training iteration of a
// strategy on a backend. All times are virtual seconds.
type Report struct {
	// Backend is the registry name of the evaluator that produced the
	// report.
	Backend string
	// Planner echoes the strategy's planner name.
	Planner string
	// IterationTime is the wall-clock span from the first task start to
	// the end of the gradient synchronization.
	IterationTime float64
	// Throughput is MiniBatch / IterationTime, the paper's reported
	// samples-per-second metric.
	Throughput float64
	// ComputeSpan is the time until the last backward task finishes
	// (excludes the final allreduce).
	ComputeSpan float64
	// AllreduceTime is the largest per-stage gradient synchronization
	// cost, paid once per iteration after the last backward pass.
	AllreduceTime float64
	Stages        []StageReport
	// Timeline holds every executed task in the canonical order: by start
	// time, then stage, then task kind and index.
	Timeline []TaskRecord
}

// PeakMemory returns the worst per-device memory across stages.
func (r *Report) PeakMemory() float64 {
	var peak float64
	for i := range r.Stages {
		if r.Stages[i].PeakMemory > peak {
			peak = r.Stages[i].PeakMemory
		}
	}
	return peak
}

// MaxInFlightSamples returns the largest observed per-stage in-flight
// sample count.
func (r *Report) MaxInFlightSamples() int {
	max := 0
	for i := range r.Stages {
		if r.Stages[i].PeakInFlightSamples > max {
			max = r.Stages[i].PeakInFlightSamples
		}
	}
	return max
}

// Options tunes an evaluation. The zero value selects every backend's
// defaults.
type Options struct {
	// CostModel overrides the cost model; nil selects
	// costmodel.NewDefault over the topology passed to Evaluate. It must
	// be built on that same topology.
	CostModel costmodel.Model
	// Timeout bounds the wall-clock execution time of concurrent backends
	// (the runtime backend's deadlock guard). Backends without real
	// concurrency ignore it.
	Timeout time.Duration
}

// ResolveModel resolves the options' cost model against the evaluation
// topology: the override if set, costmodel.NewDefault otherwise. A model
// built over a differently-sized cluster is rejected — the strategy's
// device IDs would index outside the model's device table. (Same-size
// topologies with different link parameters are indistinguishable here
// and remain the caller's responsibility.)
func ResolveModel(topo *cluster.Topology, opts Options) (costmodel.Model, error) {
	if opts.CostModel == nil {
		return costmodel.NewDefault(topo), nil
	}
	if mt := opts.CostModel.Topology(); mt.Len() != topo.Len() {
		return nil, fmt.Errorf("eval: cost model topology has %d devices, evaluation topology has %d",
			mt.Len(), topo.Len())
	}
	return opts.CostModel, nil
}

// Evaluator executes strategies on one backend. Implementations must be
// safe for concurrent Evaluate calls: the experiment harness fans grids
// out across goroutines.
type Evaluator interface {
	// Name returns the registry key (e.g. "sim").
	Name() string
	// Evaluate runs one synchronous training iteration of st — which must
	// be valid for g and topo (strategy.Validate, C1–C4) — and reports
	// the result.
	Evaluate(g *graph.Graph, topo *cluster.Topology, st *strategy.Strategy, opts Options) (*Report, error)
}

// Assemble derives a Report from a backend's raw task timeline. Both
// built-in backends report through it, so every derived quantity —
// per-stage busy/idle time, peak memory from in-flight replay, the
// iteration span including the gradient allreduce — is computed by exactly
// one piece of code and backend Reports differ only if the timelines do.
//
// The timeline may arrive in any order; Assemble canonicalizes it.
func Assemble(g *graph.Graph, model costmodel.Model, st *strategy.Strategy, backend string, timeline []TaskRecord) *Report {
	rep := &Report{
		Backend:  backend,
		Planner:  st.Planner,
		Stages:   make([]StageReport, len(st.Stages)),
		Timeline: canonicalize(timeline),
	}

	firstStart, computeSpan := math.Inf(1), 0.0
	for _, tr := range rep.Timeline {
		if tr.Start < firstStart {
			firstStart = tr.Start
		}
		if tr.End > computeSpan {
			computeSpan = tr.End
		}
	}
	if math.IsInf(firstStart, 1) {
		firstStart = 0
	}

	// Per-stage replay: busy time, last completion, and the in-flight
	// sample high-water mark. The canonical order sorts each stage's tasks
	// by start time, which is their execution order (stages run their
	// tasks sequentially).
	busy := make([]float64, len(st.Stages))
	lastDone := make([]float64, len(st.Stages))
	inFlight := make([]int, len(st.Stages))
	peak := make([]int, len(st.Stages))
	for _, tr := range rep.Timeline {
		i := tr.Stage
		busy[i] += tr.End - tr.Start
		if tr.End > lastDone[i] {
			lastDone[i] = tr.End
		}
		if tr.Task.Kind == schedule.Forward {
			inFlight[i] += tr.Task.End - tr.Task.Start
			if inFlight[i] > peak[i] {
				peak[i] = inFlight[i]
			}
		} else {
			inFlight[i] -= tr.Task.End - tr.Task.Start
		}
	}

	var iterEnd float64
	for i := range st.Stages {
		costs := StageCosts(g, model, &st.Stages[i])
		rep.Stages[i] = StageReport{
			ComputeTime:         busy[i],
			IdleTime:            computeSpan - firstStart - busy[i],
			PeakMemory:          costs.Memory(peak[i]),
			PeakInFlightSamples: peak[i],
		}
		if costs.AllreducePerIter > rep.AllreduceTime {
			rep.AllreduceTime = costs.AllreducePerIter
		}
		// Each stage begins its gradient allreduce as soon as its own
		// last backward finishes; the iteration ends when every stage's
		// synchronization completes.
		if end := lastDone[i] + costs.AllreducePerIter; end > iterEnd {
			iterEnd = end
		}
	}
	rep.ComputeSpan = computeSpan - firstStart
	rep.IterationTime = iterEnd - firstStart
	if rep.IterationTime > 0 {
		rep.Throughput = float64(st.MiniBatch) / rep.IterationTime
	}
	return rep
}

// StageCosts costs one stage of a strategy: against its contiguous device
// block, which is how every planner places stages, or — for a
// non-contiguous group — with the placement-oblivious rules, the
// allreduce spanning nodes exactly when the group does. Both backends and
// Assemble cost stages through it, so they cannot disagree on a stage.
func StageCosts(g *graph.Graph, model costmodel.Model, stage *strategy.Stage) costmodel.StageCosts {
	cfg := costmodel.StageConfig{
		Ops:        stage.Ops,
		MicroBatch: stage.Config.MicroBatch,
		DataPar:    len(stage.Devices),
	}
	if blk, ok := cluster.ContiguousBlock(stage.Devices); ok {
		cfg.Place = blk
	} else {
		cfg.InterNodeAllreduce = model.Topology().GroupSpansNodes(stage.Devices)
	}
	return model.Stage(g, cfg)
}

// Transfer is the cost of one stage boundary's tensors crossing between
// the two stages' device groups.
type Transfer struct {
	// PerSample is the seconds per sample at the bottleneck link's rate.
	PerSample float64
	// Latency is the per-transfer latency of the bottleneck link's level.
	Latency float64
}

// Time returns the seconds a transfer of samples samples takes; a boundary
// that carries no bytes is free.
func (x Transfer) Time(samples int) float64 {
	if x.PerSample == 0 {
		return 0
	}
	return x.PerSample*float64(samples) + x.Latency
}

// EdgeTransfer costs the from→to boundary of a strategy at the bottleneck
// link between the stages' device groups (cluster.Topology.GroupLink).
// Gradients mirror activations: a backward edge carries the tensor sizes
// of the reverse forward edge. Both backends charge transfers through it.
func EdgeTransfer(g *graph.Graph, topo *cluster.Topology, st *strategy.Strategy, from, to strategy.StageID) Transfer {
	bytes := g.CutBytes(st.Stages[from].Ops, st.Stages[to].Ops)
	if bytes == 0 {
		bytes = g.CutBytes(st.Stages[to].Ops, st.Stages[from].Ops)
	}
	if bytes == 0 {
		return Transfer{}
	}
	bw, lat := topo.GroupLink(st.Stages[from].Devices, st.Stages[to].Devices)
	return Transfer{PerSample: bytes / bw, Latency: lat}
}

// canonicalize sorts a copy of the timeline into the canonical order.
// Within a stage, start times are strictly increasing (tasks run
// sequentially and durations are positive), so the order is total and
// identical for any backend producing the same task times.
func canonicalize(timeline []TaskRecord) []TaskRecord {
	out := append([]TaskRecord(nil), timeline...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Task.Kind != b.Task.Kind {
			return a.Task.Kind == schedule.Forward
		}
		return a.Task.Index < b.Task.Index
	})
	return out
}
