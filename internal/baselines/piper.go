package baselines

import (
	"errors"
	"fmt"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// ErrSearchExplosion is returned when Piper's downset lattice exceeds its
// state budget, its downset limit or its timeout (the ✗ of Table 1).
var ErrSearchExplosion = errors.New("piper: downset state space exceeds budget")

// Piper's search bounds. The first two apply when planner.Options leaves
// StateBudget or Timeout zero.
const (
	defaultStateBudget = 50_000_000
	defaultTimeout     = 5 * time.Minute
	// downsetLimit aborts before the DP when the graph has more downsets
	// than this. The lattice is the DP's state space, so exceeding it
	// guarantees an explosion; the quick count is the structural check
	// behind Table 1's immediate ✗ entries.
	downsetLimit = 50_000
)

// walkDownsets calls visit with every non-empty downset of the sub-DAG
// that g induces on within, and with what the downset leaves of within. It
// grows each downset by one ready operator at a time and never adds an
// operator that an earlier sibling branch of the walk tried, so it reaches
// each downset once. The walk reuses both sets: visit must copy what it
// keeps. An error from visit ends the walk.
func walkDownsets(g *graph.Graph, within graph.NodeSet, visit func(stage, rest *graph.NodeSet) error) error {
	stage, rest := graph.NewNodeSet(g.Len()), within.Clone()
	readyIn := func(v graph.NodeID) bool {
		for _, p := range g.Pred(v) {
			if rest.Contains(p) {
				return false
			}
		}
		return true
	}
	// ready stacks one list per level of the walk: the operators the
	// level may add next.
	var ready []graph.NodeID
	for _, v := range within.IDs() {
		if readyIn(v) {
			ready = append(ready, v)
		}
	}
	var walk func(from int) error
	walk = func(from int) error {
		to := len(ready)
		for i := from; i < to; i++ {
			v := ready[i]
			stage.Add(v)
			rest.Remove(v)
			ready = append(ready, ready[i+1:to]...)
			for _, w := range g.Succ(v) {
				if rest.Contains(w) && readyIn(w) {
					ready = append(ready, w)
				}
			}
			if err := visit(&stage, &rest); err != nil {
				return err
			}
			if err := walk(to); err != nil {
				return err
			}
			ready = ready[:to]
			stage.Remove(v)
			rest.Add(v)
		}
		return nil
	}
	return walk(0)
}

// countDownsets counts the downsets of g's operator DAG, stopping at
// limit+1. The count is the size of Piper's DP state space (§7.2: |D| ≥ kⁿ
// for n branches of k operators).
func countDownsets(g *graph.Graph, limit int) int {
	count := 1 // the empty downset
	err := walkDownsets(g, g.AllNodes(), func(_, _ *graph.NodeSet) error {
		if count++; count > limit {
			return errBudget
		}
		return nil
	})
	if err != nil {
		return limit + 1
	}
	return count
}

// downsets is Piper's partition space: a state is an upset of the graph
// (the operators not yet staged), and its stages are the downsets of the
// sub-DAG it induces. A set is keyed by its fingerprint.
type downsets struct{ g *graph.Graph }

// named keys ops by its fingerprint.
func named(ops *graph.NodeSet) set { return set{key: ops.Fingerprint(), n: ops.Len(), ops: *ops} }

func (sp downsets) root() set {
	all := sp.g.AllNodes()
	return named(&all)
}

func (sp downsets) each(s set, try func(stage, rest set) error) error {
	return walkDownsets(sp.g, s.ops, func(stage, rest *graph.NodeSet) error {
		return try(named(stage), named(rest))
	})
}

func (downsets) between(s, rest set) graph.NodeSet { return s.ops.Minus(rest.ops) }

// piper registers the Piper baseline as "piper". StateBudget bounds its DP
// states plus candidate stages, and Timeout its wall-clock ("no strategy
// within reasonable timeframes", §7.1).
type piper struct{}

func (piper) Name() string { return "piper" }

func (piper) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	lim := limits{budget: opts.StateBudget, timeout: opts.Timeout}
	if lim.budget == 0 {
		lim.budget = defaultStateBudget
	}
	if lim.timeout == 0 {
		lim.timeout = defaultTimeout
	}
	return plan("piper", g, topo, miniBatch, opts, lim, func() (space, error) {
		if countDownsets(g, downsetLimit) > downsetLimit {
			return nil, fmt.Errorf("%w: > %d downsets", ErrSearchExplosion, downsetLimit)
		}
		return downsets{g}, nil
	})
}

func init() { planner.Register(piper{}) }
