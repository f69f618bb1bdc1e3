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
// DP states are memoized on (zone, devices, placement class, source
// config, successor config and in-flight count); the zone count is
// polynomial for series-parallel DNNs. The paper credits that for a search
// 9–21× faster than the SPP baselines (§7.2). This implementation does not
// reproduce the claim: on the Summit cells it measures, GraphPipe searches
// slower than PipeDream, because the placement class and the successor's
// in-flight count multiply the states (see ROADMAP.md). The DP skips every
// candidate whose bounds already lose to the state's incumbent before
// paying for its second lookup (see wins).
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
// enumeration fan out across one bounded worker pool
// (planner.Options.Workers), sharing a mutex-sharded memo table. Every DP
// value is a pure function of its state key and validity interval, so the
// parallel search returns the same strategy as the sequential path
// (Workers=1), and the probe-spanning memo returns the same strategy as a
// fresh memo per probe (planner.Options.FreshProbeMemo) — both pinned by
// test.
//
// Every stage runs synchronous 1F1B (§6's default). The scheduler and both
// evaluators support kFkB, but the search offers no other k.
//
// The package exports nothing: it registers the planner as "graphpipe",
// and callers reach it through planner.Get.
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

// span records one planning phase through planner.Options.Span, degrading
// to a no-op when no recorder is wired.
func (p *partitioner) span(name string, kv ...string) func() {
	if p.opts.Span == nil {
		return func() {}
	}
	return p.opts.Span(name, kv...)
}

// epsilon is the binary search's tolerance relative to the largest stage
// TPS.
const epsilon = 2e-3

// partitioner discovers GPP strategies for one model on one topology. One
// Plan call of the registered planner builds one partitioner.
type partitioner struct {
	g     *graph.Graph
	model costmodel.Model
	topo  *cluster.Topology
	dec   *spgraph.Decomposer
	opts  planner.Options

	zones *zoneTable

	// places numbers the cost-equivalence classes of contiguous device
	// blocks per block size; the class of a stage's block is the placement
	// dimension of the DP key.
	places *cluster.PlacementTable

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

// newPartitioner constructs a partitioner. The graph must have a single
// source and sink (spgraph.Validate), and the cluster at most the devices
// a DP key packs, checked before the placement table (n² classes) is
// built.
func newPartitioner(g *graph.Graph, model costmodel.Model, opts planner.Options) (*partitioner, error) {
	if err := spgraph.Validate(g); err != nil {
		return nil, err
	}
	topo := model.Topology()
	if d := topo.Len(); d > maxKeyDevs {
		return nil, fmt.Errorf("core: %d devices exceed the DP key's %d-device limit", d, maxKeyDevs)
	}
	dec := spgraph.New(g)
	zt := newZoneTable(dec)
	zt.noAnchored = opts.DisableSinkAnchoredSplits
	p := &partitioner{
		g:     g,
		model: model,
		topo:  topo,
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

// combine builds the series/parallel combination of a and b in a new arena
// node; the caller sets its source fields.
func (w *dpWalker) combine(a, b *dpResult) *dpResult {
	r := w.newResult()
	*r = dpResult{
		maxMem:  max(a.maxMem, b.maxMem),
		maxTPS:  max(a.maxTPS, b.maxTPS),
		nStages: a.nStages + b.nStages,
		left:    a,
		right:   b,
	}
	return r
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

// wins implements the DP's preference order: it reports whether a
// candidate holding inFlight source samples, mem bytes at peak and nStages
// stages is preferred to the incumbent inc. Feasible beats infeasible (a
// nil inc), then fewer source-stage in-flight samples (the §5 subproblem
// objective), then less peak memory (PickBetter, Algorithm 1 line 18),
// then fewer stages. A tie keeps the incumbent, so of equal candidates the
// first in enumeration order wins.
//
// Called with lower bounds on a candidate that is not yet solved, wins is
// the DP's branch-and-bound test: when the bounds do not win, no candidate
// they bound can, and the DP skips the candidate's remaining lookups. The
// bounds rest on two facts: every case of Table 2 is the successor's
// in-flight count plus a term of the two configs that is at least minInc,
// and a zone reports at least the in-flight count of every stage inside it
// (the maximum over parallel groups, the upstream source of a series
// split). A series candidate therefore holds at least its right part's
// count plus minInc, a parallel candidate at least its right part's count,
// and either one at least its right part's peak memory. The stage bound
// passed is 0, so a candidate is skipped only when it loses strictly on
// in-flight count or memory: a tighter stage bound skips more states in a
// cold search but leaves warm-starting searches fewer snapshot entries to
// reuse. A skipped candidate could not replace the incumbent at any target
// inside the state's span, because the incumbent and the right part are
// both fixed there. So the memoized value is the one a full enumeration
// computes, and the span, which then omits the skipped lookups, stays
// sound.
func wins(inc *dpResult, inFlight int, mem float64, nStages int) bool {
	switch {
	case inc == nil:
		return true
	case inFlight != inc.inFlight:
		return inFlight < inc.inFlight
	case mem != inc.maxMem:
		return mem < inc.maxMem
	}
	return nStages < inc.nStages
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
// probe of that search: the probe-spanning sharded memo, the stage-cost
// table, the frozen config index, and the worker pool. tmax is the current
// probe's target; probes are sequential within one search, so mutating it
// between probes is race-free. The recursion itself runs in dpWalker
// instances, one per concurrent branch.
type search struct {
	p         *partitioner
	miniBatch int
	rootB     int // this search's root micro-batch candidate
	tmax      float64
	bCands    []int // all candidate micro-batch sizes (per-stage mode)
	maxDegree int   // cluster size: data-parallel degrees are powers of two ≤ this
	memo      *memoTable
	// evalCache memoizes per-(zone, micro-batch, devices, placement
	// class) stage costs. The costs are independent of the binary-search
	// target and are therefore reused across all probes; each search owns
	// its table, so concurrent per-size searches never contend, and the
	// table is internally sharded for the per-probe fan-out.
	evalCache *evalTable
	states    atomic.Int64
	pool      *workerPool // nil: fully sequential probe

	// cfgs interns schedule configs for key packing; cfgs[0] is the root
	// config. It is frozen before the search starts (every reachable config
	// is a micro-batch candidate), so concurrent walkers read it without
	// locking and key packing is deterministic regardless of visit order.
	cfgs []schedule.Config
	// boundary is the fixed list of candidate stage-boundary configs: every
	// source config of this search shares one micro-batch size (uniform
	// mode) or the boundary offers every candidate size (per-stage mode),
	// so the list is computed once per search instead of allocated per DP
	// state.
	boundary []schedule.Config
	// minInc is the smallest in-flight increment Table 2 adds between any
	// two frozen configs (ComputeInFlight(c, [{c2, i}]) − i), and minKB the
	// smallest k·b, the in-flight count of a stage with no successor.
	// Together they bound what a candidate can hold before it is solved
	// (see wins).
	minInc, minKB int
}

// freezeConfigs pre-interns every schedule config the search can reach, in
// a deterministic order: the root micro-batch size, then in per-stage mode
// every other candidate size. Stage-boundary candidates (§6) follow the
// same rule: in the uniform default every boundary inherits the root size,
// and per-stage mode offers every candidate (Figure 5's per-stage sizes).
func (s *search) freezeConfigs(rootB int) {
	s.cfgs = []schedule.Config{{MicroBatch: rootB, K: 1}}
	if s.p.opts.PerStageMicroBatch {
		for _, b := range s.bCands {
			c := schedule.Config{MicroBatch: b, K: 1}
			s.boundary = append(s.boundary, c)
			if b != rootB {
				s.cfgs = append(s.cfgs, c)
			}
		}
	} else {
		s.boundary = s.cfgs
	}
	s.minInc, s.minKB = math.MaxInt, math.MaxInt
	for _, c := range s.cfgs {
		s.minKB = min(s.minKB, schedule.ComputeInFlight(c, nil))
		for _, c2 := range s.cfgs {
			s.minInc = min(s.minInc, schedule.ComputeInFlight(c, []schedule.Successor{{Config: c2}}))
		}
	}
}

// seriesWins reports whether any series candidate of a state with
// successor cb can win against the incumbent inc (see wins). Its source
// holds at least two increments over cb, or one over the smallest k·b at
// the model's sink: the right part's source holds one increment over the
// successor and the left part's source one over the right's.
func (s *search) seriesWins(inc *dpResult, cb *schedule.Successor) bool {
	floor := s.minKB + s.minInc
	if cb != nil {
		floor = cb.InFlight + 2*s.minInc
	}
	return wins(inc, floor, 0, 0)
}

// configIdx resolves a schedule config to its frozen index by scanning the
// (tiny: one per micro-batch candidate) config list. makeKey calls this for
// every DP state; a linear compare over at most a few structs beats
// hashing the struct into a map, which used to be ~20% of the whole search
// in profiles. The root config, every config of the uniform default, is
// checked inline before the call.
func (s *search) configIdx(c schedule.Config) int {
	if c == s.cfgs[0] {
		return 0
	}
	return s.scanConfigs(c)
}

func (s *search) scanConfigs(c schedule.Config) int {
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
// width for this search; newPartitioner has already bounded the device
// count. Zone and config counts are final here (resolveAll has run;
// freezeConfigs interns the root config plus at most one per candidate,
// the count checked below). In-flight counts are produced by
// schedule.ComputeInFlight, whose Table 2 recurrences add at most
// b + 2·max(b) ≤ 3·maxB per 1F1B stage over a pipeline of at most
// topo.Len() stages, so 3·maxB·devices bounds every successor in-flight
// value the DP can construct.
func (p *partitioner) validateKeyRanges(bCands []int) error {
	if n := len(p.zones.sets); n-1 > maxZoneID {
		return fmt.Errorf("core: %d series-parallel zones exceed the DP key's %d-zone limit", n, maxZoneID+1)
	}
	nCfg := 1
	if p.opts.PerStageMicroBatch {
		nCfg += len(bCands)
	}
	if nCfg > maxCfgIdx {
		return fmt.Errorf("core: %d schedule configs exceed the DP key's %d-config limit", nCfg, maxCfgIdx)
	}
	maxB := 1
	for _, b := range bCands {
		if b > maxB {
			maxB = b
		}
	}
	// Guard the factor before multiplying so the int64 product (b ≤ 2²²,
	// devices ≤ 2⁷) cannot itself overflow.
	if maxB > maxKInFlight {
		return fmt.Errorf("core: micro-batch candidate %d exceeds the DP key's in-flight limit %d",
			maxB, maxKInFlight)
	}
	if bound := 3 * int64(maxB) * int64(p.topo.Len()); bound > maxKInFlight {
		return fmt.Errorf("core: worst-case in-flight samples %d (3·b·devices with b=%d) exceed the DP key's limit %d",
			bound, maxB, maxKInFlight)
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
// search in guard-map traffic). Results are slab-allocated per walker.
type dpWalker struct {
	s        *search
	depth    int
	maxDepth int
	arena
}

func (s *search) newWalker() *dpWalker {
	// Zone sizes strictly decrease along a recursion path, so a path can
	// hold at most one dp frame per distinct size ≤ |V| (+1 for the root).
	return &dpWalker{s: s, maxDepth: s.p.g.Len() + 1}
}

// arena slab-allocates derivation nodes for one owner (a walker, or an
// imported snapshot's node builder): dpResults live in the memo for the
// whole search, so freeing is never safe, but batching the allocations
// keeps the DP inner loop off the allocator's hot path. An arena is not
// safe for concurrent use.
type arena struct {
	resSlab   []dpResult
	stageSlab []dpStage
}

const arenaSlabSize = 256

func (a *arena) newResult() *dpResult {
	if len(a.resSlab) == 0 {
		a.resSlab = make([]dpResult, arenaSlabSize)
	}
	r := &a.resSlab[0]
	a.resSlab = a.resSlab[1:]
	return r
}

func (a *arena) newStage() *dpStage {
	if len(a.stageSlab) == 0 {
		a.stageSlab = make([]dpStage, arenaSlabSize)
	}
	st := &a.stageSlab[0]
	a.stageSlab = a.stageSlab[1:]
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

	// Series decompositions: solve downstream (right) first; its source
	// in-flight count becomes the upstream (left) sink's successor info
	// (Algorithm 1 lines 33–40). The upstream part keeps the block's low
	// devices; the downstream part lands at start+d1. A single stage that
	// already holds fewer samples than any series candidate can settles
	// the whole enumeration.
	if s.seriesWins(best, cb) {
		for _, spl := range s.p.zones.seriesSplits(zoneID) {
			for d2 := 1; d2 < d; d2++ {
				d1 := d - d2
				for _, cm := range s.boundary {
					r, rsp := w.trySeries(best, spl, cf, cm, cb, d1, d2, start)
					sp.join(rsp)
					if r != nil {
						best = r
					}
				}
			}
		}
	}

	// Parallel decompositions: both groups share the source and sink
	// schedule boundaries; continuous pipelining takes the larger source
	// in-flight count (Algorithm 1 lines 41–47).
	for _, spl := range s.p.zones.parallelSplits(zoneID) {
		for d1 := 1; d1 < d; d1++ {
			r, rsp := w.tryParallel(best, spl, cf, cb, d1, d-d1, start)
			sp.join(rsp)
			if r != nil {
				best = r
			}
		}
	}

	w.depth--
	s.memo.put(key, best, sp)
	return best, sp
}

// trySeries evaluates one series-split candidate against the incumbent
// inc: right part on d2 devices under boundary config cm, then the left
// part with the right's source schedule as its successor. It returns the
// candidate in a new arena node if it wins against inc, and nil otherwise:
// the DP inner loop evaluates orders of magnitude more candidates than it
// keeps, so a losing one costs no allocation. When the right part is
// infeasible, or its bounds already lose (wins), the left is never
// consulted — exactly as a fresh computation at any target inside the
// returned span would behave, so the early return keeps reuse sound.
func (w *dpWalker) trySeries(inc *dpResult, sp splitIDs, cf, cm schedule.Config, cb *schedule.Successor, d1, d2, start int) (*dpResult, span) {
	r2, v := w.dp(sp.right, cm, cb, d2, start+d1)
	if r2 == nil || !wins(inc, r2.inFlight+w.s.minInc, r2.maxMem, 0) {
		return nil, v
	}
	mid := schedule.Successor{Config: r2.srcCfg, InFlight: r2.inFlight}
	r1, v1 := w.dp(sp.left, cf, &mid, d1, start)
	v.join(v1)
	if r1 == nil || !wins(inc, r1.inFlight, max(r1.maxMem, r2.maxMem), r1.nStages+r2.nStages) {
		return nil, v
	}
	out := w.combine(r1, r2)
	out.inFlight = r1.inFlight
	out.srcCfg = r1.srcCfg
	return out, v
}

// tryParallel evaluates one parallel-split candidate against the
// incumbent inc, returning it as trySeries does. For sink-anchored splits
// the right group carries the zone's shared sink operator, so the left
// group's successor is the sink-holding stage inside the right group's
// solution rather than the stage after the zone.
func (w *dpWalker) tryParallel(inc *dpResult, sp splitIDs, cf schedule.Config, cb *schedule.Successor, d1, d2, start int) (*dpResult, span) {
	r2, v := w.dp(sp.right, cf, cb, d2, start+d1)
	if r2 == nil || !wins(inc, r2.inFlight, r2.maxMem, 0) {
		return nil, v
	}
	leftCB := cb
	var anchored schedule.Successor
	if sp.sinkAnchored {
		cfg, ifl, ok := r2.stageInfoFor(sp.mergeOp)
		if !ok {
			return nil, v // derivation must own the merge op
		}
		anchored = schedule.Successor{Config: cfg, InFlight: ifl}
		leftCB = &anchored
	}
	r1, v1 := w.dp(sp.left, cf, leftCB, d1, start)
	v.join(v1)
	if r1 == nil {
		return nil, v
	}
	inFlight := max(r1.inFlight, r2.inFlight)
	if !wins(inc, inFlight, max(r1.maxMem, r2.maxMem), r1.nStages+r2.nStages) {
		return nil, v
	}
	out := w.combine(r1, r2)
	out.inFlight = inFlight
	out.srcCfg = cf
	return out, v
}

// dpRoot solves the root zone. With a worker pool, the root's candidate
// set — the single-stage attempt plus every (series split, device split,
// boundary config) and (parallel split, device split) combination — fans
// out across the pool, each task recursing sequentially through its own
// walker into the shared memo. Candidates land in enumeration-order slots
// and are folded with wins in that same order, so the winner is the one
// the sequential path picks: each candidate's value is a pure function of
// its sub-keys, independent of which walker computed the memo entries. The
// single-stage attempt runs first and is every task's incumbent, the one
// they all know: a task returns its candidate only if it wins against it,
// and one that does not cannot win the fold either. The root state is
// memoized like any other, so a later probe whose target falls inside the
// root entry's span skips the whole fan-out.
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
	inc, incSpan := s.newWalker().stageAttempt(zoneID, cf, cb, d, start)
	var tasks []func()
	cands := []*dpResult{inc}
	spans := []span{incSpan}
	spawn := func(f func(w *dpWalker) (*dpResult, span)) {
		i := len(cands)
		cands = append(cands, nil)
		spans = append(spans, fullSpan())
		tasks = append(tasks, func() { cands[i], spans[i] = f(s.newWalker()) })
	}
	if s.seriesWins(inc, cb) {
		for _, sp := range s.p.zones.seriesSplits(zoneID) {
			for d2 := 1; d2 < d; d2++ {
				d1 := d - d2
				for _, cm := range s.boundary {
					sp, cm, d1, d2 := sp, cm, d1, d2
					spawn(func(w *dpWalker) (*dpResult, span) {
						return w.trySeries(inc, sp, cf, cm, cb, d1, d2, start)
					})
				}
			}
		}
	}
	for _, sp := range s.p.zones.parallelSplits(zoneID) {
		for d1 := 1; d1 < d; d1++ {
			sp, d1, d2 := sp, d1, d-d1
			spawn(func(w *dpWalker) (*dpResult, span) {
				return w.tryParallel(inc, sp, cf, cb, d1, d2, start)
			})
		}
	}
	s.pool.Do(tasks)
	var best *dpResult
	rootSpan := fullSpan()
	for i, c := range cands {
		if c != nil && wins(best, c.inFlight, c.maxMem, c.nStages) {
			best = c
		}
		rootSpan.join(spans[i])
	}
	s.memo.put(key, best, rootSpan)
	return best
}

// iterationEstimate is the root solution's costmodel.IterationEstimate,
// the synchronous-1F1B objective all three planners select their final
// strategy by (see docs/ARCHITECTURE.md, "The cost model").
func (r *dpResult) iterationEstimate(miniBatch int) float64 {
	return costmodel.IterationEstimate(r.maxTPS, miniBatch, r.inFlight, r.srcCfg.MicroBatch)
}

// perB accumulates one candidate micro-batch size's search outcome. The
// search object itself is retained only when a MemoSink will export its
// memo after the fan-out joins; otherwise plan drops it as soon as it
// ends, keeping its warm-reuse count in reused.
type perB struct {
	best   *dpResult
	states int
	iters  int
	search *search
	warmed bool
	reused int // memo variants materialized from the warm snapshot
}

// newSearch constructs one micro-batch size's search state with its config
// index frozen. plan's fan-out and the snapshot round-trip tests share it.
func (p *partitioner) newSearch(b, miniBatch int, bCands []int, pool *workerPool) *search {
	s := &search{
		p:         p,
		miniBatch: miniBatch,
		rootB:     b,
		bCands:    bCands,
		maxDegree: p.topo.Len(),
		memo:      newMemoTable(pool != nil),
		evalCache: newEvalTable(pool != nil),
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
// A warm snapshot's matching SearchMemo, if compatible, backs the memo
// from the first probe on: an imported entry whose validity interval
// covers a probe's target short-circuits exactly as this search's own
// earlier probes would.
//
// Each probe is Algorithm 1's SearchStageGraph with 1F1B as the one global
// schedule: the root zone on every device under the root config.
func (p *partitioner) searchMicroBatch(out *perB, b, miniBatch int, bCands []int, maxTPS, eps float64, root int, pool *workerPool, snap *memosnap.Snapshot) {
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
		r := s.dpRoot(root, s.cfgs[0], nil, p.topo.Len())
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

// plan runs the full Algorithm 1: binary search over the bottleneck TPS
// target with a probe-spanning DP memo (entries carry monotone validity
// intervals, so later probes re-solve only the states their target
// invalidates), then assembles, schedules, and validates the winning
// strategy.
func (p *partitioner) plan(miniBatch int) (*strategy.Strategy, planner.Stats, error) {
	if miniBatch <= 0 {
		return nil, planner.Stats{}, fmt.Errorf("core: invalid mini-batch %d", miniBatch)
	}
	bCands := planner.MicroBatchCandidates(miniBatch, p.opts.ForcedMicroBatch, p.opts.MaxMicroBatch)
	if len(bCands) == 0 {
		return nil, planner.Stats{}, fmt.Errorf("core: no candidate micro-batch sizes divide mini-batch %d", miniBatch)
	}
	workers := p.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(workers)
	}

	root := p.zones.intern(p.dec.Root())
	p.zones.resolveAll(root) // make the zone table read-only

	if err := p.validateKeyRanges(bCands); err != nil {
		return nil, planner.Stats{}, err
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
	export := p.opts.MemoSink != nil && !p.opts.FreshProbeMemo
	if (p.opts.WarmMemo != nil || export) && !p.opts.FreshProbeMemo {
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
	// root fan-outs share one bounded worker pool. Only an export reads a
	// finished search, so without one each search (memo and stage costs)
	// is dropped as soon as it ends, while the other sizes still search.
	results := make([]perB, len(bCands))
	tasks := make([]func(), len(bCands))
	for i, b := range bCands {
		i, b := i, b
		tasks[i] = func() {
			out := &results[i]
			p.searchMicroBatch(out, b, miniBatch, bCands, maxTPS, eps, root, pool, snap)
			out.reused = int(out.search.memo.warmHits.Load())
			if !export {
				out.search = nil
			}
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
		return nil, planner.Stats{}, errors.New("core: no valid strategy found")
	}

	st, err := p.assemble(best, miniBatch)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	stats := planner.Stats{
		BottleneckTPS: best.maxTPS,
		DPStates:      states,
		BinaryIters:   iters,
	}
	for i := range results {
		if results[i].warmed {
			stats.MemoWarmStarted = true
		}
		stats.MemoEntriesReused += results[i].reused
	}
	if export {
		endExport := p.span("memo.export")
		snapOut := p.exportSnapshot(snapKey, results)
		endExport()
		// The sink's own work (a memostore merge, say) is not the
		// planner's: its span keeps that time out of Plan's self time.
		endSink := p.span("memo.sink")
		p.opts.MemoSink(snapOut)
		endSink()
	}
	return st, stats, nil
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
// deterministic stage order, each stage on the contiguous device block the
// DP costed it against, final in-flight counts recomputed by backward
// traversal of the stage graph (§6), and per-stage task orders from the
// greedy scheduler.
func (p *partitioner) assemble(r *dpResult, miniBatch int) (*strategy.Strategy, error) {
	assignStarts(r, 0)
	stages := r.collectStages(nil)
	// Deterministic order: by the earliest topological position of any
	// owned operator.
	sort.SliceStable(stages, func(i, j int) bool {
		return minTopoPos(p.g, stages[i].ops) < minTopoPos(p.g, stages[j].ops)
	})

	st := &strategy.Strategy{Planner: "graphpipe", MiniBatch: miniBatch}
	for i, ds := range stages {
		devs := make([]cluster.DeviceID, ds.devs)
		for k := range devs {
			devs[k] = cluster.DeviceID(ds.start + k)
		}
		st.Stages = append(st.Stages, strategy.Stage{
			ID:      strategy.StageID(i),
			Ops:     ds.ops,
			Config:  ds.cfg,
			Devices: devs,
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
