// Package pipedream reimplements the PipeDream planner (Narayanan et al.,
// SOSP'19 / ICML'21) as the paper's primary SPP baseline (§7.1): it
// linearizes the computation graph into a single operator chain, then runs
// a dynamic program over contiguous chain ranges that jointly picks stage
// boundaries and per-stage data-parallel replication, scheduling with
// synchronous 1F1B. Per §7.1, at operator granularity this search space
// covers the partitions of GPipe, DAPPLE, and the other SPP systems.
//
// Faithful to the original algorithm (and unlike GraphPipe §5):
//
//   - the DP runs over the linearized chain, so the "imaginary linear
//     dependencies" of Figure 2 are baked into every strategy;
//   - replication factors range over all integers 1..m, not powers of two;
//   - there is no binary search: the DP directly minimizes the bottleneck
//     stage time, tracking pipeline depth for 1F1B memory accounting.
//
// The planner consumes the same cost model as GraphPipe, so strategy
// quality differences are attributable to the algorithms.
package pipedream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// Options tunes the baseline planner.
type Options struct {
	// MaxMicroBatch caps candidate micro-batch sizes (default 4096).
	MaxMicroBatch int
	// ForcedMicroBatch restricts the search to one size (Figure 7 right).
	ForcedMicroBatch int
}

// Result is the planning outcome.
type Result struct {
	Strategy      *strategy.Strategy
	BottleneckTPS float64
	DPStates      int
}

// ErrNoStrategy is returned when no partition fits device memory.
var ErrNoStrategy = errors.New("pipedream: no valid strategy found")

// Planner is the PipeDream baseline planner.
type Planner struct {
	g     *graph.Graph
	model costmodel.Model
	topo  *cluster.Topology
	opts  Options
	order []graph.NodeID // linearized operator chain
}

// NewPlanner constructs the planner. Any DAG is accepted: linearization
// imposes a total order regardless of branches.
func NewPlanner(g *graph.Graph, model costmodel.Model, opts Options) *Planner {
	if opts.MaxMicroBatch == 0 {
		opts.MaxMicroBatch = 4096
	}
	return &Planner{
		g:     g,
		model: model,
		topo:  model.Topology(),
		opts:  opts,
		order: g.Topo(),
	}
}

// dpEntry is the best solution for a DP state.
type dpEntry struct {
	bottleneck float64
	// split: the suffix stage is order[i:j) on d1 devices; rest solved by
	// state (j, d-d1, depth-1).
	j, d1 int
	ok    bool
}

type stageEval struct {
	tps          float64
	weightMem    float64
	actPerSample float64
}

type searchState struct {
	p      *Planner
	b      int // micro-batch size under consideration
	mini   int
	memo   map[[3]int]dpEntry
	evals  map[[3]int]stageEval
	states int
}

// opsRange returns the operator set of the linearized range [i, j).
func (s *searchState) opsRange(i, j int) graph.NodeSet {
	set := graph.NewNodeSet(s.p.g.Len())
	for k := i; k < j; k++ {
		set.Add(s.p.order[k])
	}
	return set
}

// stageTPS evaluates the range [i,j) as one stage with d1 replicas holding
// `depth` 1F1B in-flight micro-batches; ok=false when memory is exceeded.
// Depth-independent costs are cached per (i, j, d1).
func (s *searchState) stageTPS(i, j, d1, depth int) (float64, bool) {
	key := [3]int{i, j, d1}
	ev, ok := s.evals[key]
	if !ok {
		cfg := costmodel.StageConfig{
			Ops:                s.opsRange(i, j),
			MicroBatch:         s.b,
			DataPar:            d1,
			InterNode:          s.p.topo.Len() > 4,
			InterNodeAllreduce: d1 > 4,
		}
		costs := s.p.model.Stage(s.p.g, cfg)
		ev = stageEval{
			tps:          costs.TPS(s.b, s.mini),
			weightMem:    costs.WeightBytes,
			actPerSample: costs.ActivationBytesPerSample,
		}
		s.evals[key] = ev
	}
	inFlight := float64(depth * s.b)
	if ev.weightMem+ev.actPerSample*inFlight > s.p.topo.MinMemory() {
		return 0, false
	}
	return ev.tps, true
}

// dp solves the suffix order[i:] on d devices partitioned into exactly
// `depth` sequential stages, minimizing the bottleneck stage TPS.
func (s *searchState) dp(i, d, depth int) dpEntry {
	key := [3]int{i, d, depth}
	if e, ok := s.memo[key]; ok {
		return e
	}
	s.states++
	n := len(s.p.order)
	var best dpEntry
	best.bottleneck = math.Inf(1)
	if depth == 1 {
		// Single final stage covering the whole suffix.
		if tps, ok := s.stageTPS(i, n, d, 1); ok {
			best = dpEntry{bottleneck: tps, j: n, d1: d, ok: true}
		}
		s.memo[key] = best
		return best
	}
	for j := i + 1; j <= n-(depth-1); j++ {
		for d1 := 1; d1 <= d-(depth-1); d1++ {
			tps, ok := s.stageTPS(i, j, d1, depth)
			if !ok {
				continue
			}
			if tps >= best.bottleneck {
				continue // this stage alone is already worse
			}
			rest := s.dp(j, d-d1, depth-1)
			if !rest.ok {
				continue
			}
			bn := math.Max(tps, rest.bottleneck)
			if bn < best.bottleneck {
				best = dpEntry{bottleneck: bn, j: j, d1: d1, ok: true}
			}
		}
	}
	s.memo[key] = best
	return best
}

func (p *Planner) microBatchCandidates(miniBatch int) []int {
	if p.opts.ForcedMicroBatch > 0 {
		if miniBatch%p.opts.ForcedMicroBatch != 0 {
			return nil
		}
		return []int{p.opts.ForcedMicroBatch}
	}
	var out []int
	for b := 1; b <= miniBatch && b <= p.opts.MaxMicroBatch; b *= 2 {
		if miniBatch%b == 0 {
			out = append(out, b)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Plan searches stage counts, split points, replication factors, and
// micro-batch sizes, returning the strategy with the lowest bottleneck TPS.
func (p *Planner) Plan(miniBatch int) (*Result, error) {
	if miniBatch <= 0 {
		return nil, fmt.Errorf("pipedream: invalid mini-batch %d", miniBatch)
	}
	bCands := p.microBatchCandidates(miniBatch)
	if len(bCands) == 0 {
		return nil, fmt.Errorf("pipedream: no candidate micro-batch sizes divide mini-batch %d", miniBatch)
	}
	maxDepth := p.topo.Len()
	if n := len(p.order); n < maxDepth {
		maxDepth = n
	}

	type winner struct {
		s     *searchState
		depth int
		entry dpEntry
		score float64
	}
	var best *winner
	states := 0
	for _, b := range bCands {
		s := &searchState{p: p, b: b, mini: miniBatch,
			memo: make(map[[3]int]dpEntry), evals: make(map[[3]int]stageEval)}
		for depth := 1; depth <= maxDepth; depth++ {
			e := s.dp(0, p.topo.Len(), depth)
			if !e.ok {
				continue
			}
			// Synchronous 1F1B iteration estimate: the pipeline fills and
			// drains every iteration (m + depth − 1 bottleneck slots for
			// m = B/b micro-batches), so deep pipelines pay warm-up and
			// cool-down bubbles the steady-state bottleneck TPS hides. The
			// source stage holds depth micro-batches in flight.
			score := costmodel.IterationEstimate(e.bottleneck, miniBatch, depth*b, b)
			if best == nil || score < best.score {
				best = &winner{s: s, depth: depth, entry: e, score: score}
			}
		}
		states += s.states
	}
	if best == nil {
		return nil, ErrNoStrategy
	}
	st, err := p.assemble(best.s, best.depth, miniBatch)
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: st, BottleneckTPS: best.entry.bottleneck, DPStates: states}, nil
}

// assemble reconstructs the chain of stages from the memoized splits and
// builds the sequential 1F1B strategy.
func (p *Planner) assemble(s *searchState, depth, miniBatch int) (*strategy.Strategy, error) {
	st := &strategy.Strategy{Planner: "pipedream", MiniBatch: miniBatch}
	i, d := 0, p.topo.Len()
	var order []strategy.StageID
	var counts []int
	for k := depth; k >= 1; k-- {
		e := s.memo[[3]int{i, d, k}]
		if !e.ok {
			return nil, fmt.Errorf("pipedream: reconstruction failed at (%d,%d,%d)", i, d, k)
		}
		id := strategy.StageID(len(st.Stages))
		cfg := schedule.Config{MicroBatch: s.b, K: 1}
		inFlight := k * s.b // 1F1B: depth-from-sink micro-batches
		tasks, err := schedule.BuildTasks(cfg, miniBatch, inFlight)
		if err != nil {
			return nil, err
		}
		st.Stages = append(st.Stages, strategy.Stage{
			ID:              id,
			Ops:             s.opsRange(i, e.j),
			Config:          cfg,
			InFlightSamples: inFlight,
			Tasks:           tasks,
		})
		counts = append(counts, e.d1)
		order = append(order, id)
		i, d = e.j, d-e.d1
	}
	groups, err := cluster.PlaceStages(p.topo, counts)
	if err != nil {
		return nil, err
	}
	for gi := range st.Stages {
		st.Stages[gi].Devices = groups[gi]
	}
	if err := st.BuildEdges(p.g); err != nil {
		return nil, err
	}
	// The linearization's imaginary dependencies make the pipeline
	// strictly sequential (Figure 2, top).
	st.AddSequentialEdges(order)
	if err := st.Validate(p.g, p.topo); err != nil {
		return nil, fmt.Errorf("pipedream: assembled strategy invalid: %w", err)
	}
	return st, nil
}
