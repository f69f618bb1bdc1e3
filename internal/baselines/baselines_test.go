package baselines

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// branches builds a source feeding len(lengths) parallel operator chains,
// the i-th with lengths[i] operators, that merge into one sink.
func branches(lengths ...int) *graph.Graph {
	b := graph.NewBuilder("branches")
	src := b.AddOp(graph.Op{Name: "src", Kind: graph.OpInput})
	sink := b.AddOp(graph.Op{Name: "sink", Kind: graph.OpConcat})
	for i, n := range lengths {
		prev := src
		for k := 0; k < n; k++ {
			v := b.AddOp(graph.Op{Name: fmt.Sprintf("b%d.%d", i, k), Kind: graph.OpLinear})
			b.Connect(prev, v)
			prev = v
		}
		b.Connect(prev, sink)
	}
	return b.MustBuild()
}

// TestCountDownsets checks the lattice size on graphs whose downsets have
// a closed form: a source, k chains of n_i operators and a sink have
// 1 + Π(n_i+1) + 1 downsets (empty; the source plus any prefix of each
// chain; everything).
func TestCountDownsets(t *testing.T) {
	for _, c := range []struct {
		lengths []int
		want    int
	}{
		{[]int{3}, 6},
		{[]int{2, 3}, 14},
		{[]int{1, 1, 1}, 10},
		{[]int{4, 4, 4, 4}, 627},
	} {
		g := branches(c.lengths...)
		if got := countDownsets(g, 1000); got != c.want {
			t.Errorf("%v: %d downsets, want %d", c.lengths, got, c.want)
		}
		if got := countDownsets(g, c.want-1); got != c.want {
			t.Errorf("%v with limit %d: got %d, want limit+1", c.lengths, c.want-1, got)
		}
		if got := countDownsets(g, c.want); got != c.want {
			t.Errorf("%v with limit %d: got %d, want the exact count", c.lengths, c.want, got)
		}
	}
}

// TestWalkDownsetsOfState checks Piper's candidate stages from a state
// other than the root: every visited stage is a distinct downset of the
// state's sub-DAG, the rest is the state minus the stage, and the walk
// reaches them all.
func TestWalkDownsetsOfState(t *testing.T) {
	g := branches(2, 3, 1)
	// The state left after staging the source and the first operator of
	// branch 0.
	done := graph.NodeSetOf(0, 2)
	state := g.AllNodes().Minus(done)
	seen := map[string]bool{}
	err := walkDownsets(g, state, func(stage, rest *graph.NodeSet) error {
		if !g.IsDownset(stage.Union(done)) {
			t.Errorf("stage %v is not a downset of the state's sub-DAG", stage)
		}
		if !rest.Equal(state.Minus(*stage)) {
			t.Errorf("rest %v, want state minus stage %v", rest, stage)
		}
		if seen[stage.String()] {
			t.Errorf("stage %v visited twice", stage)
		}
		seen[stage.String()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2·4·2 + 1 downsets of the graph contain the staged operators: the
	// second operator of branch 0 is in or out, each other branch holds
	// any prefix, and the sink joins only when everything else is in. The
	// walk visits all but the one that adds nothing.
	if want := 2 * 4 * 2; len(seen) != want {
		t.Errorf("%d stages, want %d", len(seen), want)
	}
}

// TestChainPlannersAgree pins the containment the shared DP rests on
// (§7.1): on a chain graph Piper's downsets are exactly PipeDream's
// prefixes, so the two planners return the same strategy, apart from the
// planner tag.
func TestChainPlannersAgree(t *testing.T) {
	type question struct {
		g       *graph.Graph
		devices int
	}
	var qs []question
	for _, layers := range []int{4, 6, 8, 12} {
		for _, devices := range []int{2, 4, 8} {
			qs = append(qs, question{models.SequentialTransformer(layers), devices})
		}
	}
	for seed := 1; seed <= 6; seed++ {
		g, _, err := models.Build(fmt.Sprintf("synth:chain/seed=%d", seed), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, question{g, 4})
	}
	for _, q := range qs {
		t.Run(fmt.Sprintf("%s@%d", q.g.Name(), q.devices), func(t *testing.T) {
			topo := cluster.NewSummitTopology(q.devices)
			var plans [][]byte
			for _, name := range []string{"pipedream", "piper"} {
				p, err := planner.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				st, _, err := p.Plan(q.g, topo, 16*q.devices, planner.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				st.Planner = ""
				data, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, data)
			}
			if !bytes.Equal(plans[0], plans[1]) {
				t.Errorf("strategies differ:\npipedream %s\npiper     %s", plans[0], plans[1])
			}
		})
	}
}

// TestPiperCostCacheWithinBudget pins what StateBudget bounds: Piper's DP
// states and candidate stages plus the stage-cost entries it keeps until
// the search ends. On 4-branch MMT the cache grows by more than one entry
// per step (a stage is costed at every replication factor), so counting
// steps alone let it outgrow the budget. The exact split pins where the
// budget stops the search: a change to how costs are stored must not move
// it.
func TestPiperCostCacheWithinBudget(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	topo := cluster.NewSummitTopology(4)
	const budget, mini = 200_000, 64
	const wantSteps, wantCosted = 92_090, 107_910
	s := newSearch(g, costmodel.NewDefault(topo), topo, downsets{g},
		planner.MicroBatchCandidates(mini, 0, 0)[0], mini, budget, time.Time{})
	var err error
	for depth := 1; depth <= topo.Len() && err == nil; depth++ {
		_, err = s.solve(s.sp.root(), topo.Len(), depth)
	}
	if !errors.Is(err, errBudget) {
		t.Fatalf("search ended with %v, want the budget error", err)
	}
	if s.spent() > budget {
		t.Errorf("%d steps + %d cost entries exceed the budget of %d", s.states, s.costed, budget)
	}
	if s.states != wantSteps || s.costed != wantCosted {
		t.Errorf("budget spent as %d steps + %d cost entries, want %d + %d", s.states, s.costed, wantSteps, wantCosted)
	}
}
