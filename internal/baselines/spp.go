// Package baselines reimplements the paper's two SPP baselines (§7.1; SPP
// is sequential pipeline parallelism): PipeDream (Narayanan et al.,
// SOSP'19 / ICML'21) and Piper (Tarnawski et al., NeurIPS'21). Both cut
// the operators into a chain of stages, replicate each stage
// data-parallel, and schedule the chain with synchronous 1F1B. They differ
// only in their partition space, so one dynamic program serves both. A DP
// state is the set of operators not yet staged; a move peels off the next
// stage on d1 devices and leaves the rest to the remaining devices and
// stages:
//
//   - PipeDream's stages are the prefixes of one linearized operator
//     chain, so the "imaginary linear dependencies" of Figure 2 are baked
//     into every strategy. At operator granularity this space covers the
//     partitions of GPipe, DAPPLE and the other SPP systems.
//   - Piper's stages are the downsets of the sub-DAG that is left. Stages
//     may therefore span branches, a strict superset of PipeDream's space,
//     but the downset lattice is exponential in the number of parallel
//     branches (§7.2: |D| ≥ kⁿ), which is why the paper reports ✗ for
//     DLRM and CANDLE-Uno. A state budget, a quick downset count and a
//     timeout bound the search and return ErrSearchExplosion beyond them,
//     reproducing the ✗ entries of Table 1.
//
// Faithful to the original algorithms (and unlike GraphPipe §5),
// replication factors range over all integers 1..m, not powers of two, and
// there is no binary search: the DP directly minimizes the bottleneck stage
// time, tracking pipeline depth for 1F1B memory accounting. Both planners
// consume the same cost model as GraphPipe, so strategy quality
// differences are attributable to the algorithms. They register as
// "pipedream" and "piper".
package baselines

import (
	"errors"
	"fmt"
	"math"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// A set names an operator set for the memo and the stage-cost cache by a
// key and its size: PipeDream keys a range of its chain by the range's
// first position, Piper keys any set by its fingerprint. A state and a
// stage with the same operators have the same name. Piper's sets also
// carry their operators.
type set struct {
	key uint64
	n   int
	ops graph.NodeSet
}

// A space is one planner's partition space.
type space interface {
	// root returns the state that holds every operator.
	root() set
	// each calls try with every non-empty stage that may be peeled off
	// state s and the state it leaves, in the planner's order, and stops
	// at try's first error. Their ops are valid only during the call.
	each(s set, try func(stage, rest set) error) error
	// between returns the operators of state s that rest lacks.
	between(s, rest set) graph.NodeSet
}

// limits bound a search. PipeDream runs unbounded.
type limits struct {
	budget  int // DP states plus candidate stages plus stage-cost entries
	timeout time.Duration
}

var errBudget = errors.New("budget exceeded")

// memoKey names a DP state on d devices and depth stages.
type memoKey struct {
	key         uint64
	n, d, depth int32
}

// stageKey names a candidate stage.
type stageKey struct {
	key uint64
	n   int32
}

// entry is the best chain found for a DP state: its bottleneck TPS, and
// the first stage's degree and the state that stage leaves.
type entry struct {
	bottleneck float64
	d1         int
	rest       set
	ok         bool
}

// A costRow holds one stage's costs by replication factor: element d1-1
// is the stage on d1 replicas, filled in when the DP first tries it.
type costRow []stageCost

type stageCost struct {
	tps, weights, actPerSample float64
	costed                     bool
}

// costRows keeps a search's cost rows. A row is a run of slots in one of
// a list of fixed-size chunks, and the index names it by its first slot
// and its length, so a row costs no allocation and no slice header of its
// own: a bounded Piper search holds over a million rows, most of them
// with one or two degrees costed.
type costRows struct {
	index    map[stageKey]rowRef
	chunks   [][]stageCost
	chunkLen int // slots per chunk, at least the longest row
	used     int // slots taken in the last chunk
}

// rowRef names a row by its first slot, counted across chunks, and its
// length.
type rowRef struct{ at, n int32 }

func newCostRows(maxRow int) costRows {
	return costRows{index: make(map[stageKey]rowRef), chunkLen: max(1<<14, maxRow)}
}

// get returns the row of key, at least n degrees long. A row gets the
// degrees its first visit asks for; a later visit that asks for more moves
// it, costs and all, to a longer run.
func (c *costRows) get(key stageKey, n int) costRow {
	ref, ok := c.index[key]
	if ok && int(ref.n) >= n {
		return c.run(ref)
	}
	moved := c.alloc(n)
	if ok {
		copy(c.run(moved), c.run(ref))
	}
	c.index[key] = moved
	return c.run(moved)
}

func (c *costRows) run(ref rowRef) costRow {
	chunk := c.chunks[int(ref.at)/c.chunkLen]
	off := int(ref.at) % c.chunkLen
	return chunk[off : off+int(ref.n) : off+int(ref.n)]
}

func (c *costRows) alloc(n int) rowRef {
	if len(c.chunks) == 0 || c.used+n > c.chunkLen {
		c.chunks = append(c.chunks, make([]stageCost, c.chunkLen))
		c.used = 0
	}
	ref := rowRef{at: int32((len(c.chunks)-1)*c.chunkLen + c.used), n: int32(n)}
	c.used += n
	return ref
}

// search is the DP for one micro-batch size.
type search struct {
	g        *graph.Graph
	model    costmodel.Model
	topo     *cluster.Topology
	mem      float64 // the smallest device memory
	sp       space
	b, mini  int
	memo     map[memoKey]entry
	costs    costRows
	costed   int // stage-cost entries filled in, over every row
	states   int
	budget   int
	deadline time.Time
}

func newSearch(g *graph.Graph, model costmodel.Model, topo *cluster.Topology, sp space, b, mini, budget int, deadline time.Time) *search {
	return &search{g: g, model: model, topo: topo, mem: topo.MinMemory(), sp: sp, b: b, mini: mini,
		memo: make(map[memoKey]entry), costs: newCostRows(topo.Len()),
		budget: budget, deadline: deadline}
}

// spent is what the search has taken from its budget: one unit per DP
// state and candidate stage (states, which Stats.DPStates reports), and
// one per stage-cost entry, which stays live until the search ends. A
// memo entry needs no unit of its own: each DP state makes at most one.
func (s *search) spent() int { return s.states + s.costed }

// step counts one DP state or candidate stage against the budget, unless
// the budget is spent, and every 65536 steps checks the deadline.
func (s *search) step() error {
	if s.spent() >= s.budget || s.states%(1<<16) == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return errBudget
	}
	s.states++
	return nil
}

// row returns the cost row of stage with at least its first n degrees.
// The DP looks a stage's row up once per visit and then indexes it by
// replication factor.
func (s *search) row(stage set, n int) costRow {
	return s.costs.get(stageKey{stage.key, int32(stage.n)}, n)
}

// stageTPS returns the TPS of the stage that takes state st to rest on d1
// replicas, read from the stage's row, and whether its weights plus the
// activations of depth in-flight micro-batches fit device memory. Each
// (stage, d1) is costed once per search, and a new cost entry is refused
// once the budget is spent, so the rows never outgrow the budget. ops
// caches the stage's operators across the degrees of one visit: a stage
// is never empty, so an empty *ops means they are not built yet.
func (s *search) stageTPS(row costRow, ops *graph.NodeSet, st, rest set, d1, depth int) (float64, bool, error) {
	c := &row[d1-1]
	if !c.costed {
		if s.spent() >= s.budget {
			return 0, false, errBudget
		}
		if ops.Empty() {
			*ops = s.sp.between(st, rest)
		}
		costs := s.model.Stage(s.g, costmodel.StageConfig{
			Ops:                *ops,
			MicroBatch:         s.b,
			DataPar:            d1,
			InterNode:          s.topo.Len() > 4,
			InterNodeAllreduce: d1 > 4,
		})
		*c = stageCost{costs.TPS(s.b, s.mini), costs.WeightBytes, costs.ActivationBytesPerSample, true}
		s.costed++
	}
	return c.tps, c.weights+c.actPerSample*float64(depth*s.b) <= s.mem, nil
}

// solve stages state st on d devices as exactly depth sequential stages,
// minimizing the bottleneck stage TPS.
func (s *search) solve(st set, d, depth int) (entry, error) {
	key := memoKey{st.key, int32(st.n), int32(d), int32(depth)}
	if e, ok := s.memo[key]; ok {
		return e, nil
	}
	if err := s.step(); err != nil {
		return entry{}, err
	}
	best := entry{bottleneck: math.Inf(1)}
	if depth == 1 {
		// One final stage holds the whole state.
		var ops graph.NodeSet
		tps, ok, err := s.stageTPS(s.row(st, d), &ops, st, set{}, d, 1)
		if err != nil {
			return entry{}, err
		}
		if ok {
			best = entry{bottleneck: tps, d1: d, ok: true}
		}
		s.memo[key] = best
		return best, nil
	}
	err := s.sp.each(st, func(stage, rest set) error {
		if err := s.step(); err != nil {
			return err
		}
		if rest.n < depth-1 {
			return nil // too little left for the remaining stages
		}
		// The recursion below visits only subsets of rest, never this
		// stage, so the row does not move while the loop holds it.
		row := s.row(stage, d-(depth-1))
		var ops graph.NodeSet
		for d1 := 1; d1 <= d-(depth-1); d1++ {
			tps, ok, err := s.stageTPS(row, &ops, st, rest, d1, depth)
			if err != nil {
				return err
			}
			if !ok || tps >= best.bottleneck {
				continue // infeasible, or already worse on its own
			}
			sub, err := s.solve(rest, d-d1, depth-1)
			if err != nil {
				return err
			}
			if bn := math.Max(tps, sub.bottleneck); sub.ok && bn < best.bottleneck {
				rest.ops = rest.ops.Clone() // the space reuses its sets
				best = entry{bottleneck: bn, d1: d1, rest: rest, ok: true}
			}
		}
		return nil
	})
	if err != nil {
		return entry{}, err
	}
	s.memo[key] = best
	return best, nil
}

// plan searches stage counts, stages, replication factors and micro-batch
// sizes over the space newSpace builds, and assembles the chain with the
// lowest synchronous 1F1B iteration estimate.
func plan(name string, g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options, lim limits, newSpace func() (space, error)) (*strategy.Strategy, planner.Stats, error) {
	if miniBatch <= 0 {
		return nil, planner.Stats{}, fmt.Errorf("%s: invalid mini-batch %d", name, miniBatch)
	}
	bCands := planner.MicroBatchCandidates(miniBatch, opts.ForcedMicroBatch, opts.MaxMicroBatch)
	if len(bCands) == 0 {
		return nil, planner.Stats{}, fmt.Errorf("%s: no candidate micro-batch sizes divide mini-batch %d", name, miniBatch)
	}
	sp, err := newSpace()
	if err != nil {
		return nil, planner.Stats{}, err
	}
	var deadline time.Time
	if lim.timeout > 0 {
		deadline = time.Now().Add(lim.timeout)
	}
	explosion := fmt.Errorf("%w (budget %d)", ErrSearchExplosion, lim.budget)
	model, root := opts.Model(topo), sp.root()
	maxDepth := min(topo.Len(), g.Len())

	var (
		best               *search
		bestDepth          int
		bestTPS, bestScore float64
	)
	states, budget := 0, lim.budget
	for _, b := range bCands {
		s := newSearch(g, model, topo, sp, b, miniBatch, budget, deadline)
		for depth := 1; depth <= maxDepth; depth++ {
			e, err := s.solve(root, topo.Len(), depth)
			if err != nil {
				return nil, planner.Stats{}, explosion
			}
			if !e.ok {
				continue
			}
			// The pipeline fills and drains every iteration, so deep
			// pipelines pay warm-up and cool-down bubbles the steady-state
			// bottleneck TPS hides. The source stage holds depth
			// micro-batches in flight.
			score := costmodel.IterationEstimate(e.bottleneck, miniBatch, depth*b, b)
			if best == nil || score < bestScore {
				best, bestDepth, bestTPS, bestScore = s, depth, e.bottleneck, score
			}
		}
		states += s.states
		budget -= s.spent()
		if budget <= 0 {
			return nil, planner.Stats{}, explosion
		}
	}
	if best == nil {
		return nil, planner.Stats{}, fmt.Errorf("%s: no valid strategy found", name)
	}
	st, err := best.assemble(name, bestDepth)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return st, planner.Stats{BottleneckTPS: bestTPS, DPStates: states}, nil
}

// assemble rebuilds the depth-stage chain from the memo, places its stages
// on device groups and builds the sequential 1F1B strategy.
func (s *search) assemble(name string, depth int) (*strategy.Strategy, error) {
	st := &strategy.Strategy{Planner: name, MiniBatch: s.mini}
	cur, d := s.sp.root(), s.topo.Len()
	var order []strategy.StageID
	var counts []int
	for k := depth; k >= 1; k-- {
		e := s.memo[memoKey{cur.key, int32(cur.n), int32(d), int32(k)}]
		if !e.ok {
			return nil, fmt.Errorf("%s: reconstruction failed at depth %d", name, k)
		}
		id := strategy.StageID(len(st.Stages))
		cfg := schedule.Config{MicroBatch: s.b, K: 1}
		inFlight := k * s.b // 1F1B: depth-from-sink micro-batches
		tasks, err := schedule.BuildTasks(cfg, s.mini, inFlight)
		if err != nil {
			return nil, err
		}
		st.Stages = append(st.Stages, strategy.Stage{
			ID:              id,
			Ops:             s.sp.between(cur, e.rest),
			Config:          cfg,
			InFlightSamples: inFlight,
			Tasks:           tasks,
		})
		counts = append(counts, e.d1)
		order = append(order, id)
		cur, d = e.rest, d-e.d1
	}
	groups, err := cluster.PlaceStages(s.topo, counts)
	if err != nil {
		return nil, err
	}
	for i := range st.Stages {
		st.Stages[i].Devices = groups[i]
	}
	if err := st.BuildEdges(s.g); err != nil {
		return nil, err
	}
	// The chain's imaginary dependencies make the pipeline strictly
	// sequential (Figure 2, top).
	st.AddSequentialEdges(order)
	if err := st.Validate(s.g, s.topo); err != nil {
		return nil, fmt.Errorf("%s: assembled strategy invalid: %w", name, err)
	}
	return st, nil
}
