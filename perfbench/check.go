package main

import (
	"fmt"

	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/strategy"

	_ "graphpipe/internal/eval/all"    // register the sim and runtime backends
	_ "graphpipe/internal/planner/all" // register every planner
)

// checkStrategy is the output check every planned strategy passes: it
// must satisfy strategy.Validate (C1–C4), and the sim and the runtime
// backend must report the same throughput for it. It returns the
// simulated throughput.
func checkStrategy(rec *recorder, g *graph.Graph, topo *cluster.Topology, st *strategy.Strategy) (float64, error) {
	end := rec.begin("strategy.validate")
	err := st.Validate(g, topo)
	end()
	if err != nil {
		return 0, fmt.Errorf("%s on %d devices: invalid strategy: %w", g.Name(), topo.Len(), err)
	}
	var tput [2]float64
	for i, backend := range []string{"sim", "runtime"} {
		ev, err := eval.Get(backend)
		if err != nil {
			return 0, err
		}
		end := rec.begin("eval." + backend)
		rep, err := ev.Evaluate(g, topo, st, eval.Options{})
		end()
		if err != nil {
			return 0, fmt.Errorf("%s on %d devices: %s backend: %w", g.Name(), topo.Len(), backend, err)
		}
		tput[i] = rep.Throughput
	}
	if tput[0] != tput[1] || tput[0] <= 0 {
		return 0, fmt.Errorf("%s on %d devices: sim throughput %v, runtime throughput %v",
			g.Name(), topo.Len(), tput[0], tput[1])
	}
	return tput[0], nil
}
