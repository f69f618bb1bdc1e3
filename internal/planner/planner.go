// Package planner defines the uniform entry point shared by every pipeline
// planner in this repository — GraphPipe's core planner (§5–§6) and the two
// SPP baselines, PipeDream and Piper (§7.1) — plus a name-keyed registry
// that commands and the experiment harness resolve planners through.
//
// A planner consumes a computation graph, a cluster topology, and a
// mini-batch size, and produces a validated strategy.Strategy (conditions
// C1–C4) ready for the simulator. Planner-specific knobs are folded into
// one Options struct; each planner reads the fields it understands and
// ignores the rest, so a single options value can drive a whole sweep. New
// planners register themselves from an init function and immediately become
// available to cmd/graphpipe, cmd/experiments, and every experiment driver
// — adding a planner is a registry entry, not a cross-cutting edit.
package planner

import (
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/strategy"
)

// Options carries the cross-planner and planner-specific tuning knobs.
// The zero value selects every planner's defaults.
type Options struct {
	// ForcedMicroBatch restricts the search to exactly one micro-batch
	// size (Figure 7 right, Figure 9's "Parallel" arm). All planners.
	ForcedMicroBatch int
	// MaxMicroBatch caps the candidate micro-batch sizes (default 4096).
	// All planners.
	MaxMicroBatch int
	// Workers bounds the planning worker pool: 0 means one worker per
	// available CPU, 1 forces the sequential path. Read by planners with
	// parallel search phases (currently graphpipe).
	Workers int
	// PerStageMicroBatch enables GraphPipe's fine-grained per-stage
	// micro-batch search (§6, Figure 5). graphpipe only.
	PerStageMicroBatch bool
	// DisableSinkAnchoredSplits removes the merge-anchored partitions
	// (§7.5) for the ablation benchmarks. graphpipe only.
	DisableSinkAnchoredSplits bool
	// FreshProbeMemo restores the reference search path: a fresh DP memo
	// per binary-search probe instead of the probe-spanning memo. The
	// chosen strategy is identical either way — the conformance harness
	// exists to keep proving that. graphpipe only.
	FreshProbeMemo bool
	// StateBudget bounds Piper's DP states plus enumeration steps
	// (default 5e7), reproducing Table 1's ✗ entries. piper only.
	StateBudget int
	// Timeout bounds Piper's planning wall-clock (default 5 minutes).
	// piper only.
	Timeout time.Duration
	// CostModel overrides the default analytical cost model. It must be
	// built on the same topology that is passed to Plan; nil selects
	// costmodel.NewDefault(topo).
	CostModel costmodel.Model
	// WarmMemo, when set, lets the planner warm-start from a prior DP
	// memo snapshot: the planner computes its compatibility key and asks
	// the provider for a matching snapshot. An absent or incompatible
	// snapshot degrades to a cold plan — warm-started plans are
	// byte-identical to cold ones (the warm≡cold conformance invariant).
	// Read by planners with memoized searches (currently graphpipe).
	WarmMemo func(memosnap.Key) *memosnap.Snapshot
	// MemoSink, when set, receives the completed search's exported memo
	// snapshot after a successful plan, for reuse by later requests.
	// graphpipe only.
	MemoSink func(*memosnap.Snapshot)
	// Span, when set, records one timed span per internal planning phase
	// (per-size micro-batch searches, per-probe DP solves, memo
	// import/export): call it at phase start with a name and alternating
	// key/value attributes, and invoke the returned func at phase end.
	// The service layer wires this to its request tracer; planners must
	// tolerate nil. Spans may start from concurrent search workers.
	Span func(name string, kv ...string) func()
}

// Model resolves the cost model for a topology: the override if set, the
// default otherwise.
func (o Options) Model(topo *cluster.Topology) costmodel.Model {
	if o.CostModel != nil {
		return o.CostModel
	}
	return costmodel.NewDefault(topo)
}

// Stats reports search statistics common to the planners. Fields a planner
// does not track are zero.
type Stats struct {
	// BottleneckTPS is the achieved max-stage time-per-sample
	// (Equation 1 objective).
	BottleneckTPS float64
	// DPStates counts dynamic-programming subproblems (or, for Piper,
	// states plus enumeration steps). Under a parallel search the count
	// can vary slightly between runs: concurrent workers may evaluate a
	// memoized subproblem twice before the first result lands.
	DPStates int
	// BinaryIters counts binary-search iterations (graphpipe only).
	BinaryIters int
	// MemoWarmStarted reports that the search imported a compatible
	// prior memo snapshot (Options.WarmMemo).
	MemoWarmStarted bool
	// MemoEntriesReused counts imported memo entries the search reused,
	// each at most once.
	MemoEntriesReused int
}

// Planner is the uniform planning entry point. Implementations must be
// safe for concurrent Plan calls: the experiment harness fans a
// (model × planner × device-count) grid out across goroutines.
type Planner interface {
	// Name returns the registry key (e.g. "graphpipe").
	Name() string
	// Plan produces a validated strategy for the graph on the cluster at
	// the given mini-batch size. The returned strategy satisfies
	// strategy.Validate (C1–C4) against g and topo.
	Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts Options) (*strategy.Strategy, Stats, error)
}
