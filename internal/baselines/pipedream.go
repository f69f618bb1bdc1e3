package baselines

import (
	"math"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// chain is PipeDream's partition space: the graph linearized into one
// operator chain, whose states are suffixes and whose stages are the
// prefixes of a state. A set is the range that starts at chain position
// key.
type chain []graph.NodeID

func (c chain) root() set { return set{n: len(c)} }

func (c chain) each(s set, try func(stage, rest set) error) error {
	i, end := int(s.key), int(s.key)+s.n
	for j := i + 1; j <= end; j++ {
		if err := try(set{key: s.key, n: j - i}, set{key: uint64(j), n: end - j}); err != nil {
			return err
		}
	}
	return nil
}

func (c chain) between(s, rest set) graph.NodeSet {
	ops := graph.NewNodeSet(len(c))
	for _, v := range c[s.key : int(s.key)+s.n-rest.n] {
		ops.Add(v)
	}
	return ops
}

// pipedream registers the PipeDream baseline as "pipedream". Any DAG is
// accepted: linearization imposes a total order regardless of branches.
// The search ignores StateBudget and Timeout.
type pipedream struct{}

func (pipedream) Name() string { return "pipedream" }

func (pipedream) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	return plan("pipedream", g, topo, miniBatch, opts, limits{budget: math.MaxInt},
		func() (space, error) { return chain(g.Topo()), nil })
}

func init() { planner.Register(pipedream{}) }
