package planner_test

import (
	"fmt"
	"sync"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// countingModel records every stage-level query a planner makes.
type countingModel struct {
	costmodel.Model
	mu     sync.Mutex
	stages map[string]int // calls per distinct Stage query
	other  int            // TPS, StageMemory and FitsMemory calls
}

func (m *countingModel) Stage(g *graph.Graph, cfg costmodel.StageConfig) costmodel.StageCosts {
	key := fmt.Sprintf("%p %s b=%d d=%d x=%t/%t place=%+v", g, cfg.Ops.Key(),
		cfg.MicroBatch, cfg.DataPar, cfg.InterNode, cfg.InterNodeAllreduce, cfg.Place)
	m.mu.Lock()
	m.stages[key]++
	m.mu.Unlock()
	return m.Model.Stage(g, cfg)
}

func (m *countingModel) TPS(g *graph.Graph, cfg costmodel.StageConfig, miniBatch int) float64 {
	m.count()
	return m.Model.TPS(g, cfg, miniBatch)
}

func (m *countingModel) StageMemory(g *graph.Graph, cfg costmodel.StageConfig, inFlight int) float64 {
	m.count()
	return m.Model.StageMemory(g, cfg, inFlight)
}

func (m *countingModel) FitsMemory(g *graph.Graph, cfg costmodel.StageConfig, inFlight int) bool {
	m.count()
	return m.Model.FitsMemory(g, cfg, inFlight)
}

func (m *countingModel) count() {
	m.mu.Lock()
	m.other++
	m.mu.Unlock()
}

// TestEachStageCostedOnce pins the one stage-cost path: a cold sequential
// search of every planner derives a stage's TPS and memory from a single
// Stage call, so it never calls TPS, StageMemory or FitsMemory and never
// asks for the same stage twice.
func TestEachStageCostedOnce(t *testing.T) {
	twoBranch := models.DefaultMMTConfig()
	twoBranch.Branches = 2
	cases := []struct {
		planner string
		g       *graph.Graph
		devices int
		mb      int
	}{
		{"graphpipe", models.MMT(models.DefaultMMTConfig()), 8, 128},
		{"graphpipe", models.CANDLEUno(models.DefaultCANDLEUnoConfig()), 4, 4096},
		{"pipedream", models.MMT(models.DefaultMMTConfig()), 8, 128},
		{"piper", models.MMT(twoBranch), 4, 64},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s@%d", c.planner, c.g.Name(), c.devices), func(t *testing.T) {
			topo := cluster.NewSummitTopology(c.devices)
			m := &countingModel{Model: costmodel.NewDefault(topo), stages: map[string]int{}}
			p, err := planner.Get(c.planner)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.Plan(c.g, topo, c.mb, planner.Options{Workers: 1, CostModel: m}); err != nil {
				t.Fatal(err)
			}
			if m.other != 0 {
				t.Errorf("%d TPS/StageMemory/FitsMemory calls; a stage's TPS and memory must come from its one Stage call", m.other)
			}
			if len(m.stages) == 0 {
				t.Fatal("no Stage calls recorded")
			}
			for key, n := range m.stages {
				if n > 1 {
					t.Errorf("stage costed %d times: %s", n, key)
					break
				}
			}
			t.Logf("%d distinct stages, each costed once", len(m.stages))
		})
	}
}
