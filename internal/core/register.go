package core

import (
	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// graphpipe registers GraphPipe's planner as "graphpipe". Each Plan call
// builds its own partitioner, so concurrent calls share no state.
type graphpipe struct{}

func (graphpipe) Name() string { return "graphpipe" }

func (graphpipe) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p, err := newPartitioner(g, opts.Model(topo), opts)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return p.plan(miniBatch)
}

func init() { planner.Register(graphpipe{}) }
