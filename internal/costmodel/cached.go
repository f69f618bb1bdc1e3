package costmodel

import (
	"sync"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
)

// Cached memoizes the Stage queries of an underlying Model; TPS and memory
// derive from the memoized costs. No planner or evaluator here builds one:
// each planner already memoizes stage costs per search, so a shared cache
// in front of them answered none of its lookups. It remains for callers
// that query one model repeatedly from outside a search.
//
// The cache is sharded by key hash so the parallel planner's workers and
// concurrent evaluator replays do not serialize on a single lock.
// Per-operator queries (OpForwardTime, OpBackwardTime) are already cheap
// and pass through uncached.
//
// The cache never evicts: entries (and the graphs their keys pin) live as
// long as the Cached value. Scope an instance to a workload — one plan +
// its evaluations, one experiment cell — rather than holding one for the
// lifetime of a long-running service.
type Cached struct {
	inner  Model
	shards [cacheShards]cacheShard
}

const cacheShards = 64

type cacheShard struct {
	mu    sync.RWMutex
	stage map[stageKey]StageCosts
}

// stageKey identifies one Stage query. The operator set enters as its
// 64-bit NodeSet fingerprint plus its cardinality rather than the canonical
// hex string NodeSet.Key builds: the planner's DP evaluates millions of
// stage candidates, and the string construction (an fmt call per bitset
// word) used to dominate the lookup. The planner's zone table interns each
// zone once and primes the set's cached fingerprint, so hot lookups are a
// field read, not a hash. Operator indices are only meaningful within one
// graph, so the key also carries the graph's identity: one Cached model may
// serve evaluations of different graphs over the same topology (e.g. two
// artifacts replayed back to back), and op-index collisions between graphs
// must not alias their costs.
type stageKey struct {
	g           *graph.Graph
	ops         uint64 // NodeSet.Fingerprint of the op set
	nOps        int    // NodeSet.Len, a cheap extra collision guard
	microBatch  int
	dataPar     int
	interNode   bool
	interNodeAR bool
	placeStart  int
	placeCount  int
}

// NewCached wraps inner with a memoizing layer. It is safe for concurrent
// use if inner is.
func NewCached(inner Model) *Cached {
	c := &Cached{inner: inner}
	for i := range c.shards {
		c.shards[i].stage = make(map[stageKey]StageCosts)
	}
	return c
}

func keyOf(g *graph.Graph, cfg StageConfig) stageKey {
	return stageKey{
		g:           g,
		ops:         cfg.Ops.Fingerprint(),
		nOps:        cfg.Ops.Len(),
		microBatch:  cfg.MicroBatch,
		dataPar:     cfg.DataPar,
		interNode:   cfg.InterNode,
		interNodeAR: cfg.InterNodeAllreduce,
		placeStart:  cfg.Place.Start,
		placeCount:  cfg.Place.Count,
	}
}

// shardFor spreads the op-set fingerprint across the shards; the other key
// fields vary far less than the op set.
func (c *Cached) shardFor(ops uint64) *cacheShard {
	return &c.shards[(ops*0x9E3779B97F4A7C15)>>58]
}

// Topology returns the underlying model's topology.
func (c *Cached) Topology() *cluster.Topology { return c.inner.Topology() }

// OpForwardTime passes through to the underlying model.
func (c *Cached) OpForwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64 {
	return c.inner.OpForwardTime(op, perDeviceBatch, dev)
}

// OpBackwardTime passes through to the underlying model.
func (c *Cached) OpBackwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64 {
	return c.inner.OpBackwardTime(op, perDeviceBatch, dev)
}

// Stage returns the memoized stage costs, computing them on first use. The
// underlying model runs outside the shard lock; concurrent callers may
// duplicate a computation, but the value is deterministic so either write
// is correct.
func (c *Cached) Stage(g *graph.Graph, cfg StageConfig) StageCosts {
	key := keyOf(g, cfg)
	sh := c.shardFor(key.ops)
	sh.mu.RLock()
	costs, ok := sh.stage[key]
	sh.mu.RUnlock()
	if ok {
		return costs
	}
	costs = c.inner.Stage(g, cfg)
	sh.mu.Lock()
	sh.stage[key] = costs
	sh.mu.Unlock()
	return costs
}

// TPS derives the stage's time-per-sample from the memoized stage costs.
func (c *Cached) TPS(g *graph.Graph, cfg StageConfig, miniBatch int) float64 {
	return c.Stage(g, cfg).TPS(cfg.MicroBatch, miniBatch)
}

// StageMemory derives the stage's memory from the memoized stage costs.
func (c *Cached) StageMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) float64 {
	return c.Stage(g, cfg).Memory(inFlightSamples)
}

// FitsMemory reports whether the stage satisfies the device memory budget:
// the smallest memory in the stage's placement block when one is set, the
// cluster-wide minimum otherwise (mirroring Analytic.FitsMemory, but over
// the memoized stage costs).
func (c *Cached) FitsMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) bool {
	topo := c.inner.Topology()
	budget := topo.MinMemory()
	if cfg.Place.Count > 0 {
		budget = topo.BlockMinMemory(cfg.Place)
	}
	return c.StageMemory(g, cfg, inFlightSamples) <= budget
}

// MaxTPS passes through to the underlying model (one call per Plan, not
// worth caching).
func (c *Cached) MaxTPS(g *graph.Graph, miniBatch int) float64 {
	return c.inner.MaxTPS(g, miniBatch)
}
