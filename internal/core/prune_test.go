package core

import (
	"fmt"
	"testing"

	"graphpipe/internal/costmodel"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// pruneCell is one planning question of the branch-and-bound tests.
type pruneCell struct {
	model    string
	devices  int
	topology string // models.Topology name; empty selects Summit
	perStage bool
}

func (c pruneCell) name() string {
	s := fmt.Sprintf("%s@%d", c.model, c.devices)
	if c.topology != "" {
		s += "/" + c.topology
	}
	if c.perStage {
		s += "+per-stage"
	}
	return s
}

// TestDPStatesPinned pins the DP state count of small cells at Workers 1,
// where it is deterministic. Branch and bound (wins on a candidate's
// bounds) cut them from 2527, 12960, 4793, 45088 and 25334 states; a
// change that moves a count changes how much of the search the DP skips,
// and must say why.
func TestDPStatesPinned(t *testing.T) {
	for _, c := range []struct {
		pruneCell
		want int
	}{
		{pruneCell{model: "mmt", devices: 4}, 1301},
		{pruneCell{model: "dlrm", devices: 4}, 11961},
		{pruneCell{model: "candle-uno", devices: 4}, 3552},
		{pruneCell{model: "mmt", devices: 8, topology: "topo:two-tier/seed=1"}, 32650},
		{pruneCell{model: "case-study", devices: 4, perStage: true}, 22653},
	} {
		t.Run(c.name(), func(t *testing.T) {
			g, mb, err := models.Build(c.model, 0, c.devices)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := models.Topology(c.topology, c.devices)
			if err != nil {
				t.Fatal(err)
			}
			_, stats := planOn(t, g, topo, mb, planner.Options{Workers: 1, PerStageMicroBatch: c.perStage})
			if stats.DPStates != c.want {
				t.Errorf("DP states = %d, want %d", stats.DPStates, c.want)
			}
		})
	}
}

// TestZoneInFlightBounds checks, on every feasible value a search
// memoizes, the second premise of the DP's bounds (see wins): a zone
// reports at least the in-flight count of every stage inside it. It also
// checks the bound the premises give together: a zone holds at least its
// successor's count plus minInc, or minKB at the model's sink. The cells
// cover uniform and per-stage config sets, sink-anchored parallel splits
// (DLRM, CANDLE-Uno) and a placement-aware topology.
func TestZoneInFlightBounds(t *testing.T) {
	for _, c := range []pruneCell{
		{model: "mmt", devices: 4},
		{model: "dlrm", devices: 4},
		{model: "candle-uno", devices: 8, topology: "topo:hetero-speed/seed=7"},
		{model: "case-study", devices: 4, perStage: true},
	} {
		t.Run(c.name(), func(t *testing.T) {
			g, mb, err := models.Build(c.model, 0, c.devices)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := models.Topology(c.topology, c.devices)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPartitioner(g, costmodel.NewDefault(topo), planner.Options{Workers: 1, PerStageMicroBatch: c.perStage})
			if err != nil {
				t.Fatal(err)
			}
			root := p.zones.intern(p.dec.Root())
			p.zones.resolveAll(root)
			bCands := planner.MicroBatchCandidates(mb, 0, 0)
			maxTPS := p.model.MaxTPS(g, mb)
			checked := 0
			for _, b := range bCands {
				var out perB
				p.searchMicroBatch(&out, b, mb, bCands, maxTPS, epsilon*maxTPS, root, nil, nil)
				s := out.search
				if !c.perStage && s.minInc != b {
					t.Errorf("b=%d: minInc = %d, want b (Table 2's 1F1B increment for equal configs)", b, s.minInc)
				}
				s.memo.each(func(k dpKey, e memoEntry) {
					if e.res == memoInfeasible {
						return
					}
					r := e.res
					for _, st := range r.collectStages(nil) {
						if st.inFlight > r.inFlight {
							t.Fatalf("b=%d key %#x: zone reports %d in flight, a stage inside holds %d", b, uint64(k), r.inFlight, st.inFlight)
						}
					}
					floor := s.minKB
					if uint64(k)>>35&1 == 1 {
						floor = int(uint64(k)>>42) + s.minInc
					}
					if r.inFlight < floor {
						t.Fatalf("b=%d key %#x: zone holds %d in flight, below the bound %d", b, uint64(k), r.inFlight, floor)
					}
					checked++
				})
			}
			if checked == 0 {
				t.Fatal("no feasible memo entry checked")
			}
		})
	}
}

// TestWarmReuseCountWithoutSink pins that a search dropped early (no
// MemoSink reads it) still reports the snapshot variants it reused.
func TestWarmReuseCountWithoutSink(t *testing.T) {
	g, mb, err := models.Build("mmt", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, snap := coldSnapshot(t, g, 8, mb)
	warm := func(k memosnap.Key) *memosnap.Snapshot { return snap }
	noSink := planOutcome(t, g, 4, mb, planner.Options{Workers: 1, WarmMemo: warm})
	withSink := planOutcome(t, g, 4, mb, planner.Options{Workers: 1, WarmMemo: warm,
		MemoSink: func(*memosnap.Snapshot) {}})
	if noSink.MemoEntriesReused == 0 || noSink.MemoEntriesReused != withSink.MemoEntriesReused {
		t.Errorf("entries reused: %d without a sink, %d with one; want the same, above 0",
			noSink.MemoEntriesReused, withSink.MemoEntriesReused)
	}
}

// BenchmarkPlan times one full GraphPipe Plan, the "full Plan" rung of
// the benchmark ladder, at Workers 1 on perfbench cold-search's three
// GraphPipe cells, and reports the DP states each plan solves.
func BenchmarkPlan(b *testing.B) {
	for _, c := range []struct {
		name string
		pruneCell
	}{
		{"mmt16", pruneCell{model: "mmt", devices: 16}},
		{"candle16", pruneCell{model: "candle-uno", devices: 16}},
		{"candle8-hetero", pruneCell{model: "candle-uno", devices: 8, topology: "topo:hetero-speed/seed=7"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, mb, err := models.Build(c.model, 0, c.devices)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := models.Topology(c.topology, c.devices)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := graphpipe{}.Plan(g, topo, mb, planner.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				states = stats.DPStates
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}
