// Package core implements the paper's primary contribution: GraphPipe's
// pipeline stage partitioner (§5, Algorithm 1) working jointly with the
// static micro-batch scheduler (§6, Algorithm 2).
//
// The partitioner minimizes the Time-Per-Sample (TPS) of the bottleneck
// pipeline stage (Equation 1) subject to per-device memory (Equation 2). It
// binary-searches the target TPS and, for each target, runs a dynamic
// program over the series-parallel decomposition of the computation graph:
//
//   - Base case: treat the current zone as a single stage with data
//     parallelism across its d devices, check the TPS target, and obtain the
//     minimal in-flight sample count from the scheduler (Table 2).
//   - Series decomposition: split the zone at a cut operator; solve the
//     downstream part first (its in-flight count feeds the upstream part's
//     schedule configuration), enumerating the boundary stage configuration.
//   - Parallel decomposition: split the zone into branch groups that share
//     schedule boundaries; the source in-flight count is the maximum over
//     the groups (continuous pipelining, §5).
//
// DP states are memoized on (zone, devices, source config, successor
// config); the zone count is polynomial for series-parallel DNNs, which is
// why GraphPipe's search is 9–21× faster than the SPP baselines (§7.2).
//
// The memo spans the probes of one binary search. A DP value depends on the
// probe's TPS target only through the [tps ≤ tmax] comparisons made while
// computing it, and feasibility is monotone in the target, so each memo
// entry records the half-open interval of targets for which its value is
// provably unchanged: lo is the largest stage TPS the computation accepted,
// hi the smallest it rejected. A later probe whose target falls inside the
// interval reuses the entry outright; only states whose interval does not
// cover the new target are recomputed. Binary search converges, so late
// probes land inside the intervals of earlier ones and re-solve almost
// nothing (see docs/ARCHITECTURE.md, "Search-time engineering").
//
// The search is parallel: the independent per-micro-batch binary searches
// and, within each TPS probe, the root zone's series/parallel branch
// enumeration fan out across one bounded worker pool (Options.Workers),
// sharing a mutex-sharded memo table. Every DP value is a pure function of
// its state key and validity interval, so the parallel search returns the
// same strategy as the sequential path (Workers=1), and the probe-spanning
// memo returns the same strategy as a fresh memo per probe
// (Options.FreshProbeMemo) — both pinned by test.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/planner"
	"graphpipe/internal/schedule"
	"graphpipe/internal/spgraph"
	"graphpipe/internal/strategy"
)

// Options tunes the planner. The zero value selects the paper's defaults
// (§6): synchronous 1F1B and a single micro-batch size shared by all
// stages, searched over powers of two.
type Options struct {
	// MaxMicroBatch caps the candidate micro-batch sizes, powers of two
	// dividing the mini-batch (default planner.DefaultMaxMicroBatch).
	MaxMicroBatch int
	// KCandidates are the kFkB candidates (default {1}: 1F1B).
	KCandidates []int
	// ForcedMicroBatch restricts the search to exactly one micro-batch
	// size. Used by the fixed-µB sweep (Figure 7 right) and the "Parallel"
	// ablation arm (Figure 9).
	ForcedMicroBatch int
	// PerStageMicroBatch enables the fine-grained per-stage micro-batch
	// search of §6 (Figure 5): stage boundaries may change the micro-batch
	// size instead of inheriting the global one. Off by default, as in the
	// paper ("performance improvements ... are incremental" for the
	// evaluated models), and more expensive to search.
	PerStageMicroBatch bool
	// DisableSinkAnchoredSplits removes the partitions where a stage
	// combines a branch tail with the merge operators (§7.5's "one stage
	// necessarily contains the concatenation operator"). Exists for the
	// ablation benchmarks only.
	DisableSinkAnchoredSplits bool
	// Workers bounds the planning worker pool shared by the
	// per-micro-batch binary searches and the per-probe root branch
	// enumeration: 0 means one worker per available CPU, 1 forces the
	// fully sequential path. The chosen strategy is identical either way.
	Workers int
	// FreshProbeMemo restores the reference search: a fresh DP memo for
	// every binary-search probe instead of the probe-spanning memo with
	// monotone validity intervals. The chosen strategy is identical either
	// way (pinned by TestCrossProbeReuseEquivalence); the flag exists for
	// that test and for benchmarking the reuse itself. It also disables
	// warm-starting (WarmMemo/MemoSink): the reference path plans cold.
	FreshProbeMemo bool
	// WarmMemo, when set, is consulted once per Plan call with the
	// snapshot key of this (graph, options, topology/cost-model)
	// combination. A returned snapshot warm-starts the search: each
	// per-micro-batch search whose SearchMemo passes the compatibility
	// checks imports the prior entries, and the validity-interval
	// machinery invalidates exactly the entries whose [lo, hi) the new
	// probes miss. An incompatible, corrupt, or absent snapshot degrades
	// to a cold plan — never an error.
	WarmMemo func(memosnap.Key) *memosnap.Snapshot
	// MemoSink, when set, receives the completed search's exported memo
	// snapshot after a successful Plan, for persistence across requests.
	MemoSink func(*memosnap.Snapshot)
	// Span, when set, records one timed span per planning phase: each
	// per-size micro-batch search, each DP probe inside its binary
	// search, and the memo snapshot import/export. Call at phase start,
	// invoke the returned func at end. Spans start from concurrent pool
	// workers, so implementations must be safe for concurrent use. nil
	// disables phase recording with no other behavior change.
	Span func(name string, kv ...string) func()
}

// span records one planning phase through Options.Span, degrading to a
// no-op when no recorder is wired.
func (p *Planner) span(name string, kv ...string) func() {
	if p.opts.Span == nil {
		return func() {}
	}
	return p.opts.Span(name, kv...)
}

func (o Options) withDefaults() Options {
	if o.MaxMicroBatch == 0 {
		o.MaxMicroBatch = planner.DefaultMaxMicroBatch
	}
	if len(o.KCandidates) == 0 {
		o.KCandidates = []int{1}
	}
	return o
}

// epsilon is the binary search's tolerance relative to the largest stage
// TPS.
const epsilon = 2e-3

// Result is a planning outcome with search statistics.
type Result struct {
	Strategy *strategy.Strategy
	// BottleneckTPS is the achieved max-stage TPS (Equation 1 objective).
	BottleneckTPS float64
	// DPStates counts memoized subproblems across the whole search.
	DPStates int
	// BinaryIters counts binary-search iterations.
	BinaryIters int
	// MemoWarmStarted reports that at least one per-micro-batch search
	// imported a compatible prior memo snapshot (Options.WarmMemo).
	MemoWarmStarted bool
	// MemoEntriesReused counts imported memo entries whose validity
	// interval covered a probe target, each counted at most once.
	MemoEntriesReused int
}

// ErrNoStrategy is returned when no valid strategy exists within the device
// memory budget.
var ErrNoStrategy = errors.New("core: no valid strategy found")

// Planner discovers GPP strategies for one model on one topology.
type Planner struct {
	g     *graph.Graph
	model costmodel.Model
	topo  *cluster.Topology
	dec   *spgraph.Decomposer
	opts  Options

	zones *zoneTable

	// places numbers the cost-equivalence classes of contiguous device
	// blocks per block size; the class of a stage's block is the placement
	// dimension of the DP key.
	places *cluster.PlacementTable

	// evalCaches memoizes per-(zone, micro-batch, devices, placement
	// class) stage costs, partitioned by root micro-batch size so
	// concurrent per-size searches never contend. The costs are
	// independent of the binary-search target and are therefore reused
	// across all probes of one Plan call; each table is internally sharded
	// for the per-probe fan-out.
	evalCaches map[int]*evalTable

	// exportGen numbers exportSearch calls for dpResult.expGen tagging.
	exportGen uint32
}

type stageEvalKey struct {
	zone  int
	b, d  int
	place int // placement class
}

type stageEval struct {
	tps          float64
	weightMem    float64
	actPerSample float64
}

// zoneTable interns the series-parallel zones into dense integer ids so DP
// memoization keys avoid string hashing, and resolves each zone's splits to
// id pairs once.
type zoneTable struct {
	dec        *spgraph.Decomposer
	noAnchored bool
	ids        map[string]int
	sets       []graph.NodeSet
	series     [][]splitIDs
	parallel   [][]splitIDs
	resolved   []bool
}

type splitIDs struct {
	left, right  int
	sinkAnchored bool
	mergeOp      graph.NodeID
}

func newZoneTable(dec *spgraph.Decomposer) *zoneTable {
	return &zoneTable{dec: dec, ids: make(map[string]int)}
}

func (zt *zoneTable) intern(set graph.NodeSet) int {
	key := set.Key()
	if id, ok := zt.ids[key]; ok {
		return id
	}
	id := len(zt.sets)
	zt.ids[key] = id
	zt.sets = append(zt.sets, set)
	zt.series = append(zt.series, nil)
	zt.parallel = append(zt.parallel, nil)
	zt.resolved = append(zt.resolved, false)
	return id
}

func (zt *zoneTable) resolve(id int) {
	if zt.resolved[id] {
		return
	}
	zt.resolved[id] = true
	set := zt.sets[id]
	for _, sp := range zt.dec.SeriesSplits(set) {
		zt.series[id] = append(zt.series[id], splitIDs{left: zt.intern(sp.Left), right: zt.intern(sp.Right)})
	}
	for _, sp := range zt.dec.ParallelSplits(set) {
		if sp.SinkAnchored && zt.noAnchored {
			continue
		}
		zt.parallel[id] = append(zt.parallel[id], splitIDs{
			left: zt.intern(sp.Left), right: zt.intern(sp.Right),
			sinkAnchored: sp.SinkAnchored, mergeOp: sp.MergeOp,
		})
	}
	// Non-series-parallel atoms fall back to a linearized chain (§5's
	// conversion), so the planner never has to treat a multi-operator
	// blob as indivisible.
	if len(zt.series[id]) == 0 && len(zt.parallel[id]) == 0 {
		for _, sp := range zt.dec.LinearizedSplits(set) {
			zt.series[id] = append(zt.series[id], splitIDs{left: zt.intern(sp.Left), right: zt.intern(sp.Right)})
		}
	}
}

func (zt *zoneTable) seriesSplits(id int) []splitIDs {
	return zt.series[id]
}

func (zt *zoneTable) parallelSplits(id int) []splitIDs {
	return zt.parallel[id]
}

// resolveAll resolves every zone reachable from root so the table becomes
// read-only and safe for the concurrent per-micro-batch searches.
func (zt *zoneTable) resolveAll(root int) {
	for next := root; next < len(zt.sets); next++ {
		zt.resolve(next)
	}
}

// NewPlanner constructs a planner. The graph must have a single source and
// sink (spgraph.Validate).
func NewPlanner(g *graph.Graph, model costmodel.Model, opts Options) (*Planner, error) {
	if err := spgraph.Validate(g); err != nil {
		return nil, err
	}
	dec := spgraph.New(g)
	zt := newZoneTable(dec)
	opts = opts.withDefaults()
	zt.noAnchored = opts.DisableSinkAnchoredSplits
	p := &Planner{
		g:     g,
		model: model,
		topo:  model.Topology(),
		dec:   dec,
		zones: zt,
		opts:  opts,
	}
	p.places = cluster.NewPlacementTable(p.topo)
	return p, nil
}

// allowedDegree reports whether d is a permitted per-stage data-parallel
// degree: powers of two up to the cluster size (§5 complexity analysis).
// The check replaces the map the search used to carry — a branch-free
// bit-trick instead of a heap allocation plus a hash per stage attempt.
func allowedDegree(d, max int) bool {
	return d > 0 && d <= max && d&(d-1) == 0
}

// --- DP machinery ---

// dpStage is one stage of a partial solution. zone is the owning
// series-parallel zone's table id — redundant with ops, but it lets the
// memo exporter name the zone without a reverse set lookup.
type dpStage struct {
	ops      graph.NodeSet
	zone     int
	cfg      schedule.Config
	devs     int
	inFlight int
	memory   float64
	tps      float64
	// start is the first device of the stage's contiguous block. The DP
	// leaves it zero — memo entries are shared across same-class blocks at
	// different offsets — and assemble stamps the winning tree's actual
	// offsets via assignStarts before flattening.
	start int
}

// dpResult is the solution of one DP subproblem. A nil dpResult means
// infeasible. Results form a derivation tree (leaf = single stage; inner =
// series/parallel combination) so the DP never copies stage lists; the
// winning tree is flattened once at assembly time.
type dpResult struct {
	// inFlight is the in-flight sample count of the zone's source
	// stage(s); parallel zones report the maximum (continuous pipelining).
	inFlight int
	// srcCfg is the configuration of the zone's source stage(s).
	srcCfg  schedule.Config
	maxMem  float64
	maxTPS  float64
	nStages int

	leaf        *dpStage // non-nil for base-case results
	left, right *dpResult

	// expGen/expID tag the node with the id the memo exporter assigned it
	// during export generation expGen (see exportSearch); zero means never
	// exported. Compared against the planner's generation counter so a
	// node shared by successive exports is deduplicated without a
	// pointer-keyed map.
	expGen uint32
	expID  int32
}

// combineInto writes the series/parallel combination of a and b into out —
// a caller-owned scratch value, not an allocation: the DP inner loop
// evaluates orders of magnitude more candidates than it keeps, so candidate
// values are built in place and only copied into an arena node when they
// win the better comparison.
func combineInto(out, a, b *dpResult) {
	*out = dpResult{
		maxMem:  a.maxMem,
		maxTPS:  a.maxTPS,
		nStages: a.nStages + b.nStages,
		left:    a,
		right:   b,
	}
	if b.maxMem > out.maxMem {
		out.maxMem = b.maxMem
	}
	if b.maxTPS > out.maxTPS {
		out.maxTPS = b.maxTPS
	}
}

// stageInfoFor returns the schedule configuration and in-flight sample
// count of the stage that owns op in this derivation, walking the tree.
// Sink-anchored splits use it to find the merge stage branch groups feed.
func (r *dpResult) stageInfoFor(op graph.NodeID) (schedule.Config, int, bool) {
	if r.leaf != nil {
		if r.leaf.ops.Contains(op) {
			return r.leaf.cfg, r.leaf.inFlight, true
		}
		return schedule.Config{}, 0, false
	}
	if cfg, ifl, ok := r.left.stageInfoFor(op); ok {
		return cfg, ifl, true
	}
	return r.right.stageInfoFor(op)
}

// collectStages flattens the derivation tree.
func (r *dpResult) collectStages(out []dpStage) []dpStage {
	if r.leaf != nil {
		return append(out, *r.leaf)
	}
	out = r.left.collectStages(out)
	return r.right.collectStages(out)
}

// better implements the DP's preference order: feasible, then smaller
// source-stage in-flight count (the §5 subproblem objective), then smaller
// peak memory (PickBetter, Algorithm 1 line 18), then fewer stages.
func better(a, b *dpResult) *dpResult {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.inFlight != b.inFlight {
		if a.inFlight < b.inFlight {
			return a
		}
		return b
	}
	if a.maxMem != b.maxMem {
		if a.maxMem < b.maxMem {
			return a
		}
		return b
	}
	if a.nStages <= b.nStages {
		return a
	}
	return b
}

// dpKey packs a DP state into one word: zone id (14 bits), devices (7),
// placement class (8), source config index (6), successor presence +
// config index (1+6), successor in-flight samples (22). The placement
// class is the cost-equivalence class of the contiguous device block the
// zone lands on among the blocks of its size (cluster.PlacementTable); a
// size-d block of an n-device cluster has at most n-d+1 ≤ 127 classes, so
// the device bound also bounds the class field. Packing keeps memo
// lookups cheap; the hot path is hundreds of millions of lookups for the
// largest models. Plan validates every field's range up front
// (validateKeyRanges), so the packing cannot silently alias distinct
// states.
type dpKey uint64

// span is the half-open interval [lo, hi) of binary-search targets for
// which a memoized DP value is provably unchanged. A DP computation depends
// on the probe target tmax only through its [tps ≤ tmax] stage-feasibility
// comparisons: lo accumulates the largest accepted stage TPS, hi the
// smallest rejected one, intersected over every sub-computation consulted.
// For any target inside the span, each of those comparisons — and therefore
// the entire computation, candidate by candidate — comes out identical, so
// the memo entry can be reused across probes (§7.2's parametric search made
// incremental).
type span struct{ lo, hi float64 }

func fullSpan() span { return span{lo: 0, hi: math.Inf(1)} }

// join intersects o into v.
func (v *span) join(o span) {
	if o.lo > v.lo {
		v.lo = o.lo
	}
	if o.hi < v.hi {
		v.hi = o.hi
	}
}

func (v span) covers(t float64) bool { return v.lo <= t && t < v.hi }

// search holds one micro-batch size's binary-search state, shared by every
// probe of that search: the probe-spanning sharded memo, the eval table,
// the frozen config index, and the worker pool. tmax is the current probe's
// target; probes are sequential within one search, so mutating it between
// probes is race-free. The recursion itself runs in dpWalker instances, one
// per concurrent branch.
type search struct {
	p         *Planner
	miniBatch int
	rootB     int // this search's root micro-batch candidate
	tmax      float64
	bCands    []int // all candidate micro-batch sizes (per-stage mode)
	maxDegree int   // cluster size: data-parallel degrees are powers of two ≤ this
	memo      *memoTable
	evalCache *evalTable
	states    atomic.Int64
	pool      *workerPool // nil: fully sequential probe

	// cfgs interns schedule configs for key packing. It is frozen before
	// the search starts (every reachable config is a micro-batch candidate
	// × kFkB candidate), so concurrent walkers read it without locking and
	// key packing is deterministic regardless of visit order.
	cfgs []schedule.Config
	// boundary is the fixed list of candidate stage-boundary configs: every
	// source config of this search shares one micro-batch size (uniform
	// mode) or the boundary offers the full candidate cross product
	// (per-stage mode), so the list is computed once per search instead of
	// allocated per DP state.
	boundary []schedule.Config
}

// freezeConfigs pre-interns every schedule config the search can reach, in
// a deterministic order. In the uniform-schedule default every boundary
// inherits the probe's root micro-batch size, so only (rootB × KCandidates)
// is reachable; per-stage mode offers the full cross product, exactly as
// the old lazy interner would have reached.
func (s *search) freezeConfigs(rootB int) {
	intern := func(c schedule.Config) {
		for _, fc := range s.cfgs {
			if fc == c {
				return
			}
		}
		if len(s.cfgs) >= maxCfgIdx {
			panic("core: too many distinct schedule configs")
		}
		s.cfgs = append(s.cfgs, c)
	}
	for _, k := range s.p.opts.KCandidates {
		intern(schedule.Config{MicroBatch: rootB, K: k})
	}
	if s.p.opts.PerStageMicroBatch {
		for _, b := range s.bCands {
			for _, k := range s.p.opts.KCandidates {
				intern(schedule.Config{MicroBatch: b, K: k})
			}
		}
	}
	// Stage-boundary candidates (§6): in the uniform default every boundary
	// inherits the search's root micro-batch size, one candidate per kFkB
	// choice; per-stage mode offers the full cross product (Figure 5's
	// per-stage sizes). Either way the list is independent of the DP state,
	// so it is built once here instead of per series split.
	if s.p.opts.PerStageMicroBatch {
		for _, b := range s.bCands {
			for _, k := range s.p.opts.KCandidates {
				s.boundary = append(s.boundary, schedule.Config{MicroBatch: b, K: k})
			}
		}
	} else {
		for _, k := range s.p.opts.KCandidates {
			s.boundary = append(s.boundary, schedule.Config{MicroBatch: rootB, K: k})
		}
	}
}

// configIdx resolves a schedule config to its frozen index by scanning the
// (tiny: one per micro-batch × kFkB candidate) config list. makeKey calls
// this for every DP state; a linear compare over at most a few structs
// beats hashing the struct into a map, which used to be ~20% of the whole
// search in profiles.
func (s *search) configIdx(c schedule.Config) int {
	for i, fc := range s.cfgs {
		if fc == c {
			return i
		}
	}
	panic(fmt.Sprintf("core: schedule config %+v not pre-interned", c))
}

func (s *search) makeKey(zoneID, d, start int, cf schedule.Config, cb *schedule.Successor) dpKey {
	k := uint64(zoneID)&0x3FFF | uint64(d&0x7F)<<14 |
		uint64(s.p.places.Class(start, d)&0xFF)<<21 | uint64(s.configIdx(cf)&0x3F)<<29
	if cb != nil {
		k |= 1 << 35
		k |= uint64(s.configIdx(cb.Config)&0x3F) << 36
		k |= uint64(cb.InFlight&0x3FFFFF) << 42
	}
	return dpKey(k)
}

// dpKey bit widths. makeKey masks each field to its width; validateKeyRanges
// proves once per Plan that the masks cannot truncate, so an oversized model
// fails loudly instead of silently colliding memo keys.
const (
	maxZoneID    = 1<<14 - 1
	maxKeyDevs   = 1<<7 - 1
	maxCfgIdx    = 1<<6 - 1
	maxKInFlight = 1<<22 - 1
)

// validateKeyRanges checks that every field makeKey packs fits its bit
// width for this search. Zone and config counts are final here (resolveAll
// has run; freezeConfigs interns only root × candidate configs, bounded by
// the product below). In-flight counts are produced by
// schedule.ComputeInFlight, whose Table 2 recurrences add at most
// k·b + 2·max(b) ≤ 3·maxK·maxB per stage over a pipeline of at most
// topo.Len() stages, so 3·maxK·maxB·devices bounds every successor
// in-flight value the DP can construct.
func (p *Planner) validateKeyRanges(bCands []int) error {
	if n := len(p.zones.sets); n-1 > maxZoneID {
		return fmt.Errorf("core: %d series-parallel zones exceed the DP key's %d-zone limit", n, maxZoneID+1)
	}
	if d := p.topo.Len(); d > maxKeyDevs {
		return fmt.Errorf("core: %d devices exceed the DP key's %d-device limit", d, maxKeyDevs)
	}
	nCfg := len(p.opts.KCandidates)
	if p.opts.PerStageMicroBatch {
		nCfg += len(bCands) * len(p.opts.KCandidates)
	}
	// freezeConfigs interns at most maxCfgIdx configs (one 6-bit index is
	// reserved headroom for its own invariant panic).
	if nCfg > maxCfgIdx {
		return fmt.Errorf("core: %d schedule configs exceed the DP key's %d-config limit", nCfg, maxCfgIdx)
	}
	maxK, maxB := 1, 1
	for _, k := range p.opts.KCandidates {
		if k > maxK {
			maxK = k
		}
	}
	for _, b := range bCands {
		if b > maxB {
			maxB = b
		}
	}
	// Guard the factors before multiplying so the int64 product (each
	// factor ≤ 2²⁶, devices ≤ 2⁷) cannot itself overflow.
	if maxK > maxKInFlight || maxB > maxKInFlight {
		return fmt.Errorf("core: kFkB candidate %d / micro-batch candidate %d exceed the DP key's in-flight limit %d",
			maxK, maxB, maxKInFlight)
	}
	if bound := 3 * int64(maxK) * int64(maxB) * int64(p.topo.Len()); bound > maxKInFlight {
		return fmt.Errorf("core: worst-case in-flight samples %d (3·k·b·devices with k=%d, b=%d) exceed the DP key's limit %d",
			bound, maxK, maxB, maxKInFlight)
	}
	return nil
}

// evalStage returns cached per-stage costs for (zone, b, d, placement
// class), costing the stage once on a miss against the class's
// representative block — any block of the class has identical costs, so
// the eval is shared across every same-class block the DP tries. The cost
// model runs outside the shard lock; concurrent walkers may duplicate an
// evaluation, but the value is deterministic so either write is correct.
func (s *search) evalStage(zoneID, b, d, start int) stageEval {
	place := s.p.places.Class(start, d)
	key := stageEvalKey{zone: zoneID, b: b, d: d, place: place}
	if ev, ok := s.evalCache.get(key); ok {
		return ev
	}
	costs := s.p.model.Stage(s.p.g, costmodel.StageConfig{
		Ops:        s.p.zones.sets[zoneID],
		MicroBatch: b,
		DataPar:    d,
		Place:      s.p.places.Rep(place, d),
	})
	ev := stageEval{
		tps:          costs.TPS(b, s.miniBatch),
		weightMem:    costs.WeightBytes,
		actPerSample: costs.ActivationBytesPerSample,
	}
	s.evalCache.put(key, ev)
	return ev
}

// stageAttempt evaluates a zone as a single stage. The returned span is the
// target interval on which the outcome (the result, or nil) is unchanged:
// a TPS rejection caps hi at the rejecting TPS, an accepted stage raises lo
// to its TPS, and the degree/divisibility/memory rejections are independent
// of the target (a memory rejection stays nil below the stage's TPS too —
// there the TPS check rejects instead).
func (w *dpWalker) stageAttempt(zoneID int, cf schedule.Config, cb *schedule.Successor, d, start int) (*dpResult, span) {
	s := w.s
	if !allowedDegree(d, s.maxDegree) {
		return nil, fullSpan()
	}
	if s.miniBatch%cf.MicroBatch != 0 {
		return nil, fullSpan()
	}
	ev := s.evalStage(zoneID, cf.MicroBatch, d, start)
	tps := ev.tps
	if tps > s.tmax {
		return nil, span{lo: 0, hi: tps}
	}
	var succs []schedule.Successor
	if cb != nil {
		succs = []schedule.Successor{*cb}
	}
	inFlight := schedule.ComputeInFlight(cf, succs)
	mem := ev.weightMem + ev.actPerSample*float64(inFlight)
	if mem > s.p.topo.BlockMinMemory(cluster.Block{Start: start, Count: d}) {
		return nil, fullSpan()
	}
	r := w.newResult()
	r.inFlight = inFlight
	r.srcCfg = cf
	r.maxMem = mem
	r.maxTPS = tps
	r.nStages = 1
	r.leaf = w.newStage()
	*r.leaf = dpStage{
		ops: s.p.zones.sets[zoneID], zone: zoneID, cfg: cf, devs: d, inFlight: inFlight, memory: mem, tps: tps,
	}
	return r, span{lo: tps, hi: math.Inf(1)}
}

// dpWalker runs the DP recursion for one concurrent branch of the search.
// Walkers share the search's sharded memo table. Recursion cannot cycle —
// every series/parallel/linearized split yields strictly smaller zones, so
// the zone size strictly decreases along any recursion path — and instead
// of the per-call hash-set guard this used to carry, the walker enforces
// that invariant with a depth counter bounded by the graph's node count
// (one int compare on a path the profiler showed spending ~10% of the
// search in guard-map traffic). Results are slab-allocated per walker:
// dpResults live in the memo for the whole search, so freeing is never
// safe, but batching the allocations keeps the DP inner loop off the
// allocator's hot path.
type dpWalker struct {
	s         *search
	depth     int
	maxDepth  int
	resSlab   []dpResult
	stageSlab []dpStage
}

const walkerSlabSize = 256

func (s *search) newWalker() *dpWalker {
	// Zone sizes strictly decrease along a recursion path, so a path can
	// hold at most one dp frame per distinct size ≤ |V| (+1 for the root).
	return &dpWalker{s: s, maxDepth: s.p.g.Len() + 1}
}

func (w *dpWalker) newResult() *dpResult {
	if len(w.resSlab) == 0 {
		w.resSlab = make([]dpResult, walkerSlabSize)
	}
	r := &w.resSlab[0]
	w.resSlab = w.resSlab[1:]
	return r
}

func (w *dpWalker) newStage() *dpStage {
	if len(w.stageSlab) == 0 {
		w.stageSlab = make([]dpStage, walkerSlabSize)
	}
	st := &w.stageSlab[0]
	w.stageSlab = w.stageSlab[1:]
	return st
}

// dp solves one subproblem: partition the zone over d devices such that the
// source stage uses configuration cf, the stage after the zone has schedule
// information cb (nil at the model's sink), and every stage meets the TPS
// target. It returns nil when infeasible, plus the target interval on which
// the answer holds (the intersection of every consulted sub-computation's
// interval): a memo entry whose interval covers a later probe's target is
// reused without recomputation.
func (w *dpWalker) dp(zoneID int, cf schedule.Config, cb *schedule.Successor, d, start int) (*dpResult, span) {
	s := w.s
	key := s.makeKey(zoneID, d, start, cf, cb)
	if r, sp, ok := s.memo.get(key, s.tmax); ok {
		return r, sp
	}
	w.depth++
	if w.depth > w.maxDepth {
		panic("core: DP recursion deeper than the graph — a split failed to shrink its zone")
	}
	s.states.Add(1)

	sp := fullSpan()
	best, asp := w.stageAttempt(zoneID, cf, cb, d, start)
	sp.join(asp)

	// Candidates are evaluated into a scratch value and copied into an
	// arena node only when they beat the incumbent, so losing candidates
	// (the overwhelming majority) cost no allocation.
	var tmp dpResult

	// Series decompositions: solve downstream (right) first; its source
	// in-flight count becomes the upstream (left) sink's successor info
	// (Algorithm 1 lines 33–40). The upstream part keeps the block's low
	// devices; the downstream part lands at start+d1.
	for _, spl := range s.p.zones.seriesSplits(zoneID) {
		for d2 := 1; d2 < d; d2++ {
			d1 := d - d2
			for _, cm := range s.boundary {
				ok, rsp := w.trySeries(&tmp, spl, cf, cm, cb, d1, d2, start)
				sp.join(rsp)
				if ok && better(best, &tmp) == &tmp {
					n := w.newResult()
					*n = tmp
					best = n
				}
			}
		}
	}

	// Parallel decompositions: both groups share the source and sink
	// schedule boundaries; continuous pipelining takes the larger source
	// in-flight count (Algorithm 1 lines 41–47).
	for _, spl := range s.p.zones.parallelSplits(zoneID) {
		for d1 := 1; d1 < d; d1++ {
			ok, rsp := w.tryParallel(&tmp, spl, cf, cb, d1, d-d1, start)
			sp.join(rsp)
			if ok && better(best, &tmp) == &tmp {
				n := w.newResult()
				*n = tmp
				best = n
			}
		}
	}

	w.depth--
	s.memo.put(key, best, sp)
	return best, sp
}

// trySeries evaluates one series-split candidate into out: right part on
// d2 devices under boundary config cm, then the left part with the right's
// source schedule as its successor. When the right part is infeasible the
// left is never consulted — exactly as a fresh computation at any target
// inside the returned span would behave, so the early return keeps reuse
// sound.
func (w *dpWalker) trySeries(out *dpResult, sp splitIDs, cf, cm schedule.Config, cb *schedule.Successor, d1, d2, start int) (bool, span) {
	r2, v := w.dp(sp.right, cm, cb, d2, start+d1)
	if r2 == nil {
		return false, v
	}
	mid := schedule.Successor{Config: r2.srcCfg, InFlight: r2.inFlight}
	r1, v1 := w.dp(sp.left, cf, &mid, d1, start)
	v.join(v1)
	if r1 == nil {
		return false, v
	}
	combineInto(out, r1, r2)
	out.inFlight = r1.inFlight
	out.srcCfg = r1.srcCfg
	return true, v
}

// tryParallel evaluates one parallel-split candidate into out. For
// sink-anchored splits the right group carries the zone's shared sink
// operator, so the left group's successor is the sink-holding stage inside
// the right group's solution rather than the stage after the zone.
func (w *dpWalker) tryParallel(out *dpResult, sp splitIDs, cf schedule.Config, cb *schedule.Successor, d1, d2, start int) (bool, span) {
	r2, v := w.dp(sp.right, cf, cb, d2, start+d1)
	if r2 == nil {
		return false, v
	}
	leftCB := cb
	var anchored schedule.Successor
	if sp.sinkAnchored {
		cfg, ifl, ok := r2.stageInfoFor(sp.mergeOp)
		if !ok {
			return false, v // derivation must own the merge op
		}
		anchored = schedule.Successor{Config: cfg, InFlight: ifl}
		leftCB = &anchored
	}
	r1, v1 := w.dp(sp.left, cf, leftCB, d1, start)
	v.join(v1)
	if r1 == nil {
		return false, v
	}
	combineInto(out, r1, r2)
	out.inFlight = r1.inFlight
	if r2.inFlight > out.inFlight {
		out.inFlight = r2.inFlight
	}
	out.srcCfg = cf
	return true, v
}

// dpRoot solves the root zone. With a worker pool, the root's candidate
// set — the single-stage attempt plus every (series split, device split,
// boundary config) and (parallel split, device split) combination — fans
// out across the pool, each task recursing sequentially through its own
// walker into the shared memo. Candidates land in enumeration-order slots
// and are folded with better in that same order, so the winner is the one
// the sequential path picks: each candidate's value is a pure function of
// its sub-keys, independent of which walker computed the memo entries. The
// root state is memoized like any other, so a later probe whose target
// falls inside the root entry's span skips the whole fan-out.
func (s *search) dpRoot(zoneID int, cf schedule.Config, cb *schedule.Successor, d int) *dpResult {
	const start = 0 // the root zone always owns the whole device range
	if s.pool == nil {
		r, _ := s.newWalker().dp(zoneID, cf, cb, d, start)
		return r
	}
	key := s.makeKey(zoneID, d, start, cf, cb)
	if r, _, ok := s.memo.get(key, s.tmax); ok {
		return r
	}
	s.states.Add(1)
	var tasks []func()
	var cands []*dpResult
	var spans []span
	spawn := func(f func(w *dpWalker) (*dpResult, span)) {
		i := len(cands)
		cands = append(cands, nil)
		spans = append(spans, fullSpan())
		tasks = append(tasks, func() { cands[i], spans[i] = f(s.newWalker()) })
	}
	spawn(func(w *dpWalker) (*dpResult, span) { return w.stageAttempt(zoneID, cf, cb, d, start) })
	// materialize copies a feasible scratch candidate into the walker's
	// arena (root candidates outlive their task, unlike the DP inner loop's
	// losing candidates).
	materialize := func(w *dpWalker, tmp *dpResult, ok bool, v span) (*dpResult, span) {
		if !ok {
			return nil, v
		}
		r := w.newResult()
		*r = *tmp
		return r, v
	}
	for _, sp := range s.p.zones.seriesSplits(zoneID) {
		for d2 := 1; d2 < d; d2++ {
			d1 := d - d2
			for _, cm := range s.boundary {
				sp, cm, d1, d2 := sp, cm, d1, d2
				spawn(func(w *dpWalker) (*dpResult, span) {
					var tmp dpResult
					ok, v := w.trySeries(&tmp, sp, cf, cm, cb, d1, d2, start)
					return materialize(w, &tmp, ok, v)
				})
			}
		}
	}
	for _, sp := range s.p.zones.parallelSplits(zoneID) {
		for d1 := 1; d1 < d; d1++ {
			sp, d1, d2 := sp, d1, d-d1
			spawn(func(w *dpWalker) (*dpResult, span) {
				var tmp dpResult
				ok, v := w.tryParallel(&tmp, sp, cf, cb, d1, d2, start)
				return materialize(w, &tmp, ok, v)
			})
		}
	}
	s.pool.Do(tasks)
	var best *dpResult
	rootSpan := fullSpan()
	for i, cand := range cands {
		best = better(best, cand)
		rootSpan.join(spans[i])
	}
	s.memo.put(key, best, rootSpan)
	return best
}

// searchStageGraph is Algorithm 1's SearchStageGraph: try every candidate
// global schedule configuration and keep the best feasible partition.
func (s *search) searchStageGraph(root, b int) *dpResult {
	var best *dpResult
	for _, k := range s.p.opts.KCandidates {
		cf := schedule.Config{MicroBatch: b, K: k}
		r := s.dpRoot(root, cf, nil, s.p.topo.Len())
		best = s.betterRoot(best, r)
	}
	return best
}

// iterationEstimate is the root solution's costmodel.IterationEstimate,
// the synchronous-1F1B objective all three planners select their final
// strategy by (see docs/ARCHITECTURE.md, "The cost model").
func (r *dpResult) iterationEstimate(miniBatch int) float64 {
	return costmodel.IterationEstimate(r.maxTPS, miniBatch, r.inFlight, r.srcCfg.MicroBatch)
}

// betterRoot is PickBetter at the root: feasibility, then the synchronous
// iteration estimate, then lower memory.
func (s *search) betterRoot(a, b *dpResult) *dpResult {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	sa, sb := a.iterationEstimate(s.miniBatch), b.iterationEstimate(s.miniBatch)
	if sa != sb {
		if sa < sb {
			return a
		}
		return b
	}
	if a.maxMem <= b.maxMem {
		return a
	}
	return b
}

// perB accumulates one candidate micro-batch size's search outcome. The
// search object itself is retained so Plan can export its memo and read
// its warm-reuse counters after the fan-out joins.
type perB struct {
	best   *dpResult
	states int
	iters  int
	search *search
	warmed bool
}

// newSearch constructs one micro-batch size's search state with its config
// index frozen. Plan's fan-out and the snapshot round-trip tests share it.
func (p *Planner) newSearch(b, miniBatch int, bCands []int, pool *workerPool) *search {
	s := &search{
		p:         p,
		miniBatch: miniBatch,
		rootB:     b,
		bCands:    bCands,
		maxDegree: p.topo.Len(),
		memo:      newMemoTable(pool != nil),
		evalCache: p.evalCaches[b],
		pool:      pool,
	}
	s.freezeConfigs(b)
	return s
}

// searchMicroBatch runs one micro-batch size's binary search over the
// bottleneck-TPS target. Probes are inherently sequential — each one
// halves the bracket the previous probe established — so parallelism comes
// from fanning each probe's root branch enumeration out on the pool, and
// from the sibling per-size searches running concurrently.
//
// All probes of one search share one memo table: entries carry the target
// interval on which they are valid, so a probe only re-solves states whose
// interval does not cover its target (FreshProbeMemo restores the
// reference one-memo-per-probe behavior).
// A warm snapshot's matching SearchMemo, if compatible, seeds the memo
// before the first probe: entries whose validity interval covers a probe's
// target short-circuit exactly as this search's own earlier probes would.
func (p *Planner) searchMicroBatch(out *perB, b, miniBatch int, bCands []int, maxTPS, eps float64, root int, pool *workerPool, snap *memosnap.Snapshot) {
	defer p.span("search.micro-batch", "b", strconv.Itoa(b))()
	s := p.newSearch(b, miniBatch, bCands, pool)
	out.search = s
	if sm := snap.Search(miniBatch, b); sm != nil && !p.opts.FreshProbeMemo {
		endImport := p.span("memo.import", "b", strconv.Itoa(b))
		out.warmed = s.importMemo(sm)
		endImport()
	}
	probe := func(tmax float64) *dpResult {
		endProbe := p.span("dp.probe", "b", strconv.Itoa(b),
			"target", strconv.FormatFloat(tmax, 'g', 6, 64))
		defer endProbe()
		if p.opts.FreshProbeMemo {
			s.memo = newMemoTable(pool != nil)
		}
		s.tmax = tmax
		r := s.searchStageGraph(root, b)
		out.states = int(s.states.Load()) // cumulative across probes
		return r
	}
	keep := func(r *dpResult) {
		if r == nil {
			return
		}
		if out.best == nil || r.iterationEstimate(miniBatch) < out.best.iterationEstimate(miniBatch) {
			out.best = r
		}
	}
	r0 := probe(maxTPS)
	if r0 == nil {
		return
	}
	keep(r0)
	tl, tr := 0.0, r0.maxTPS
	for tr-tl > eps {
		out.iters++
		tm := (tl + tr) / 2
		if r := probe(tm); r != nil {
			keep(r)
			tr = tm
			if r.maxTPS < tr {
				tr = r.maxTPS
			}
		} else {
			tl = tm
		}
	}
}

// Plan runs the full Algorithm 1: binary search over the bottleneck TPS
// target with a probe-spanning DP memo (entries carry monotone validity
// intervals, so later probes re-solve only the states their target
// invalidates), then assembles, schedules, and validates the winning
// strategy.
func (p *Planner) Plan(miniBatch int) (*Result, error) {
	if miniBatch <= 0 {
		return nil, fmt.Errorf("core: invalid mini-batch %d", miniBatch)
	}
	bCands := planner.MicroBatchCandidates(miniBatch, p.opts.ForcedMicroBatch, p.opts.MaxMicroBatch)
	if len(bCands) == 0 {
		return nil, fmt.Errorf("core: no candidate micro-batch sizes divide mini-batch %d", miniBatch)
	}
	workers := p.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(workers)
	}

	p.evalCaches = make(map[int]*evalTable) // TPS depends on miniBatch
	for _, b := range bCands {
		p.evalCaches[b] = newEvalTable(pool != nil)
	}
	root := p.zones.intern(p.dec.Root())
	p.zones.resolveAll(root) // make the zone table read-only

	if err := p.validateKeyRanges(bCands); err != nil {
		return nil, err
	}

	maxTPS := p.model.MaxTPS(p.g, miniBatch)
	eps := epsilon * maxTPS

	// Warm start: resolve this planning question's snapshot key and ask
	// the provider for a prior memo. The key binds graph, structural
	// options, and cost observables, so a snapshot from a different
	// question is rejected here; per-search compatibility (mini-batch,
	// frozen configs, zone count) is verified at import time. The
	// reference FreshProbeMemo path always plans cold.
	var snap *memosnap.Snapshot
	var snapKey memosnap.Key
	if (p.opts.WarmMemo != nil || p.opts.MemoSink != nil) && !p.opts.FreshProbeMemo {
		snapKey = p.snapshotKey()
		if p.opts.WarmMemo != nil {
			if s := p.opts.WarmMemo(snapKey); s != nil && s.Key == snapKey {
				snap = s
			}
		}
	}

	// Each candidate micro-batch size runs its own binary search over the
	// bottleneck-TPS target (Algorithm 1 lines 2-11) so the feasibility
	// frontier of every size is sampled near its own critical TPS values:
	// the DP prefers minimal in-flight counts at loose targets (a single
	// data-parallel stage hides pipelines), so each tightening step can
	// reveal a better-scored strategy. The per-size searches are
	// independent in the uniform-schedule default; they and their probes'
	// root fan-outs share one bounded worker pool.
	results := make([]perB, len(bCands))
	tasks := make([]func(), len(bCands))
	for i, b := range bCands {
		i, b := i, b
		tasks[i] = func() {
			p.searchMicroBatch(&results[i], b, miniBatch, bCands, maxTPS, eps, root, pool, snap)
		}
	}
	if pool == nil {
		for _, t := range tasks {
			t()
		}
	} else {
		pool.Do(tasks)
	}

	var best *dpResult
	states, iters := 0, 0
	for i := range results {
		states += results[i].states
		if results[i].iters > iters {
			iters = results[i].iters
		}
		r := results[i].best
		if r == nil {
			continue
		}
		if best == nil || r.iterationEstimate(miniBatch) < best.iterationEstimate(miniBatch) {
			best = r
		}
	}
	if best == nil {
		return nil, ErrNoStrategy
	}

	st, err := p.assemble(best, miniBatch)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Strategy:      st,
		BottleneckTPS: best.maxTPS,
		DPStates:      states,
		BinaryIters:   iters,
	}
	for i := range results {
		if results[i].warmed {
			res.MemoWarmStarted = true
		}
		if s := results[i].search; s != nil {
			res.MemoEntriesReused += int(s.memo.warmHits.Load())
		}
	}
	if p.opts.MemoSink != nil && !p.opts.FreshProbeMemo {
		endExport := p.span("memo.export")
		snapOut := p.exportSnapshot(snapKey, results)
		endExport()
		p.opts.MemoSink(snapOut)
	}
	return res, nil
}

// devCount returns the total device count of the derivation subtree.
func (r *dpResult) devCount() int {
	if r.leaf != nil {
		return r.leaf.devs
	}
	return r.left.devCount() + r.right.devCount()
}

// assignStarts stamps each leaf stage of the winning derivation tree with
// the start of its contiguous device block: the left child of every
// series/parallel combination owns the lower devices, exactly the
// convention the DP used when it keyed and costed the subproblems. The DP
// leaves leaf starts zero so memo entries stay shareable across same-class
// blocks; within one winning tree every node is distinct (its zones
// partition the operator set), so stamping the leaves in place is safe.
func assignStarts(r *dpResult, start int) {
	if r.leaf != nil {
		r.leaf.start = start
		return
	}
	assignStarts(r.left, start)
	assignStarts(r.right, start+r.left.devCount())
}

// assemble turns a DP solution into a concrete, validated Strategy:
// deterministic stage order, contiguous device assignment, final in-flight
// counts recomputed by backward traversal of the stage graph (§6), and
// per-stage task orders from the greedy scheduler.
func (p *Planner) assemble(r *dpResult, miniBatch int) (*strategy.Strategy, error) {
	assignStarts(r, 0)
	stages := r.collectStages(nil)
	// Deterministic order: by the earliest topological position of any
	// owned operator. This also keeps device allocation contiguous along
	// the pipeline.
	sort.SliceStable(stages, func(i, j int) bool {
		return minTopoPos(p.g, stages[i].ops) < minTopoPos(p.g, stages[j].ops)
	})

	st := &strategy.Strategy{Planner: "graphpipe", MiniBatch: miniBatch}
	var groups [][]cluster.DeviceID
	if !p.topo.Flat() {
		// On a non-flat topology the DP costed each stage against one
		// specific contiguous block, so the assembled strategy must use
		// exactly those blocks. On flat topologies every same-size block
		// is cost-identical and the allocator below keeps the artifacts
		// planned before placement-aware costing byte for byte.
		groups = make([][]cluster.DeviceID, len(stages))
		for i, ds := range stages {
			ids := make([]cluster.DeviceID, ds.devs)
			for k := range ids {
				ids[k] = cluster.DeviceID(ds.start + k)
			}
			groups[i] = ids
		}
	} else {
		counts := make([]int, len(stages))
		for i := range stages {
			counts[i] = stages[i].devs
		}
		var err error
		groups, err = cluster.PlaceStages(p.topo, counts)
		if err != nil {
			return nil, fmt.Errorf("core: device assignment: %w", err)
		}
	}
	for i, ds := range stages {
		st.Stages = append(st.Stages, strategy.Stage{
			ID:      strategy.StageID(i),
			Ops:     ds.ops,
			Config:  ds.cfg,
			Devices: groups[i],
		})
	}
	if err := st.BuildEdges(p.g); err != nil {
		return nil, err
	}

	// Recompute in-flight counts against the final stage graph by walking
	// it backward from the sink (§6): the DP's bookkeeping must agree, but
	// the stage graph is the source of truth.
	order := st.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var succs []schedule.Successor
		for _, w := range st.Succ[id] {
			succs = append(succs, schedule.Successor{
				Config:   st.Stages[w].Config,
				InFlight: st.Stages[w].InFlightSamples,
			})
		}
		st.Stages[id].InFlightSamples = schedule.ComputeInFlight(st.Stages[id].Config, succs)
	}

	for i := range st.Stages {
		tasks, err := schedule.BuildTasks(st.Stages[i].Config, miniBatch, st.Stages[i].InFlightSamples)
		if err != nil {
			return nil, fmt.Errorf("core: scheduling stage %d: %w", i, err)
		}
		st.Stages[i].Tasks = tasks
	}
	if err := st.Validate(p.g, p.topo); err != nil {
		return nil, fmt.Errorf("core: assembled strategy invalid: %w", err)
	}
	return st, nil
}

func minTopoPos(g *graph.Graph, ops graph.NodeSet) int {
	min := g.Len()
	for _, id := range ops.IDs() {
		if p := g.TopoPos(id); p < min {
			min = p
		}
	}
	return min
}
