package core

import (
	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// registered adapts the core planner to the planner.Planner interface and
// registers it as "graphpipe".
type registered struct{}

func (registered) Name() string { return "graphpipe" }

func (registered) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p, err := NewPlanner(g, opts.Model(topo), Options{
		ForcedMicroBatch:          opts.ForcedMicroBatch,
		MaxMicroBatch:             opts.MaxMicroBatch,
		Workers:                   opts.Workers,
		PerStageMicroBatch:        opts.PerStageMicroBatch,
		DisableSinkAnchoredSplits: opts.DisableSinkAnchoredSplits,
		FreshProbeMemo:            opts.FreshProbeMemo,
		WarmMemo:                  opts.WarmMemo,
		MemoSink:                  opts.MemoSink,
		Span:                      opts.Span,
	})
	if err != nil {
		return nil, planner.Stats{}, err
	}
	r, err := p.Plan(miniBatch)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return r.Strategy, planner.Stats{
		BottleneckTPS:     r.BottleneckTPS,
		DPStates:          r.DPStates,
		BinaryIters:       r.BinaryIters,
		MemoWarmStarted:   r.MemoWarmStarted,
		MemoEntriesReused: r.MemoEntriesReused,
	}, nil
}

func init() { planner.Register(registered{}) }
