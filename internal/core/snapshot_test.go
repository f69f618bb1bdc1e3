package core

import (
	"bytes"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/strategy"
)

// planBytes serializes a strategy with identity metadata only, so two
// searches that found the same strategy compare byte-equal regardless of
// their search statistics.
func planBytes(t *testing.T, st *strategy.Strategy, devices, mb int) []byte {
	t.Helper()
	data, err := strategy.EncodeArtifact(&strategy.Artifact{
		Model: "test", Devices: devices, MiniBatch: mb,
		Planner: strategy.PlannerMeta{Name: "graphpipe"}, Strategy: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// coldSnapshot plans cold with a sink attached and returns both.
func coldSnapshot(t *testing.T, g *graph.Graph, devices, mb int) (*Result, *memosnap.Snapshot) {
	t.Helper()
	var snap *memosnap.Snapshot
	topo := cluster.NewSummitTopology(devices)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), Options{
		Workers:  1,
		MemoSink: func(s *memosnap.Snapshot) { snap = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(mb)
	if err != nil {
		t.Fatalf("cold plan: %v", err)
	}
	if snap == nil {
		t.Fatal("MemoSink never called")
	}
	return r, snap
}

func warmPlan(t *testing.T, g *graph.Graph, devices, mb int, snap *memosnap.Snapshot) *Result {
	t.Helper()
	topo := cluster.NewSummitTopology(devices)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), Options{
		Workers:  1,
		WarmMemo: func(k memosnap.Key) *memosnap.Snapshot { return snap },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(mb)
	if err != nil {
		t.Fatalf("warm plan: %v", err)
	}
	return r
}

// TestWarmColdEquivalence is the core property the whole feature hangs
// on: a warm-started search produces a byte-identical strategy to a cold
// one — at the same request, at a smaller or larger device count (elastic
// replan), and at a different mini-batch — while actually reusing entries
// where the snapshot applies. Every elastic replan must also solve fewer
// DP states than its cold twin, or the snapshot machinery does not pay for
// itself (perfbench's warm-replan workload reports the wall-clock side as
// memosnap.warm_speedup).
func TestWarmColdEquivalence(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const devs, mb = 4, 64
	cold, snap := coldSnapshot(t, g, devs, mb)
	if snap.Entries() == 0 {
		t.Fatal("exported snapshot is empty")
	}
	if cold.MemoWarmStarted || cold.MemoEntriesReused != 0 {
		t.Errorf("cold plan reports warm stats: %+v", cold)
	}

	// Same request replayed warm: the root entries cover the whole probe
	// sequence, so nearly everything is reused.
	warm := warmPlan(t, g, devs, mb, snap)
	if !bytes.Equal(planBytes(t, warm.Strategy, devs, mb), planBytes(t, cold.Strategy, devs, mb)) {
		t.Error("warm replay of the same request diverged from cold")
	}
	if !warm.MemoWarmStarted || warm.MemoEntriesReused == 0 {
		t.Errorf("warm replay reused nothing: %+v", warm)
	}
	if warm.DPStates >= cold.DPStates {
		t.Errorf("warm replay explored %d states, cold %d — no savings", warm.DPStates, cold.DPStates)
	}

	// Elastic replans: same graph and mini-batch, half or twice the
	// devices. Going down (4→2 within one node, 8→4 from a two-node
	// cluster to one node), the smaller search queries only keys of at most
	// its own degree, and the larger snapshot carries them. Going up (2→4,
	// 4→8), the larger search also queries placement classes the exporter
	// lacked; the classes both sizes have keep their ids.
	colds := map[int]*Result{devs: cold}
	snaps := map[int]*memosnap.Snapshot{devs: snap}
	for _, d := range []int{devs / 2, 2 * devs} {
		colds[d], snaps[d] = coldSnapshot(t, g, d, mb)
	}
	for _, c := range []struct{ from, to int }{
		{devs, devs / 2}, {2 * devs, devs}, {devs / 2, devs}, {devs, 2 * devs},
	} {
		coldTo := colds[c.to]
		warmTo := warmPlan(t, g, c.to, mb, snaps[c.from])
		if !bytes.Equal(planBytes(t, warmTo.Strategy, c.to, mb), planBytes(t, coldTo.Strategy, c.to, mb)) {
			t.Errorf("warm elastic replan %d→%d diverged from cold", c.from, c.to)
		}
		if !warmTo.MemoWarmStarted || warmTo.MemoEntriesReused == 0 {
			t.Errorf("elastic replan %d→%d reused nothing: %+v", c.from, c.to, warmTo)
		}
		if warmTo.DPStates >= coldTo.DPStates {
			t.Errorf("elastic replan %d→%d solved %d DP states warm, %d cold: no savings",
				c.from, c.to, warmTo.DPStates, coldTo.DPStates)
		}
	}

	// Mini-batch change: memo values depend on B through the allreduce
	// term, so no SearchMemo matches — the plan must silently run cold
	// and still agree with a genuinely cold plan.
	coldMB, _ := coldSnapshot(t, g, devs, 2*mb)
	warmMB := warmPlan(t, g, devs, 2*mb, snap)
	if !bytes.Equal(planBytes(t, warmMB.Strategy, devs, 2*mb), planBytes(t, coldMB.Strategy, devs, 2*mb)) {
		t.Error("warm plan at doubled mini-batch diverged from cold")
	}
	if warmMB.MemoWarmStarted {
		t.Error("doubled mini-batch claimed a warm start with no matching SearchMemo")
	}
}

// TestSnapshotRoundTripByteStable pins the two byte-stability properties
// the disk tier and the merged sweep files rest on: the wire format
// round-trips exactly, and a search that imports a snapshot but computes
// nothing exports nothing — so merging its export back into the
// accumulated snapshot reproduces the same bytes, plan after plan, with
// no drift.
func TestSnapshotRoundTripByteStable(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	topo := cluster.NewSummitTopology(4)
	_, snap := coldSnapshot(t, g, 4, 64)

	wire := memosnap.Encode(snap)
	decoded, err := memosnap.Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(memosnap.Encode(decoded), wire) {
		t.Error("decode → re-encode changed the snapshot bytes")
	}

	// Import every SearchMemo into fresh, unprobed searches on a fresh
	// planner: each export must be empty (the exporter emits only computed
	// entries), and merging the empty exports into the accumulated
	// snapshot must leave its bytes untouched.
	p2, err := NewPlanner(g, costmodel.NewDefault(topo), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2.zones.resolveAll(p2.zones.intern(p2.dec.Root()))
	p2.evalCaches = map[int]*evalTable{}
	re := &memosnap.Snapshot{Key: decoded.Key, Devices: decoded.Devices}
	for i := range decoded.Searches {
		sm := &decoded.Searches[i]
		s := p2.newSearch(int(sm.RootB), int(sm.MiniBatch), nil, nil)
		if !s.importMemo(sm) {
			t.Fatalf("importMemo rejected search %d (mb=%d b=%d)", i, sm.MiniBatch, sm.RootB)
		}
		ex := p2.exportSearch(s)
		if len(ex.Entries) != 0 || len(ex.Nodes) != 0 {
			t.Errorf("unprobed import re-exported %d entries, %d nodes; want none", len(ex.Entries), len(ex.Nodes))
		}
		re.Searches = append(re.Searches, ex)
	}
	if !bytes.Equal(memosnap.Encode(memosnap.Merge(decoded, re)), wire) {
		t.Error("merging an unprobed re-export changed the accumulated snapshot bytes")
	}
}

// TestWarmRejectsIncompatibleSnapshots pins every degradation path: a
// wrong key, a doctored memo, and the reference FreshProbeMemo path all
// plan cold — never error, never import.
func TestWarmRejectsIncompatibleSnapshots(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const devs, mb = 4, 64
	cold, snap := coldSnapshot(t, g, devs, mb)
	coldBytes := planBytes(t, cold.Strategy, devs, mb)

	check := func(name string, snap *memosnap.Snapshot) {
		t.Helper()
		r := warmPlan(t, g, devs, mb, snap)
		if r.MemoWarmStarted || r.MemoEntriesReused != 0 {
			t.Errorf("%s: imported anyway: %+v", name, r)
		}
		if !bytes.Equal(planBytes(t, r.Strategy, devs, mb), coldBytes) {
			t.Errorf("%s: degraded plan diverged from cold", name)
		}
	}

	check("nil snapshot", nil)

	wrongKey := *snap
	wrongKey.Key.CostSig++
	check("wrong cost signature", &wrongKey)

	doctor := func(mutate func(sm *memosnap.SearchMemo)) *memosnap.Snapshot {
		d, err := memosnap.Decode(memosnap.Encode(snap))
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Searches {
			mutate(&d.Searches[i])
		}
		return d
	}
	check("zone-table mismatch", doctor(func(sm *memosnap.SearchMemo) { sm.NumZones++ }))
	check("frozen configs mismatch", doctor(func(sm *memosnap.SearchMemo) {
		if len(sm.Configs) > 0 {
			sm.Configs[0].K++
		}
	}))
	check("key field out of range", doctor(func(sm *memosnap.SearchMemo) {
		if len(sm.Entries) > 0 {
			sm.Entries[0].Key |= 0x3FFF // zone id beyond the table
		}
	}))
	check("corrupted node tree", doctor(func(sm *memosnap.SearchMemo) {
		for i := range sm.Nodes {
			if !sm.Nodes[i].Leaf {
				sm.Nodes[i].NStages++ // breaks nStages = left + right
				return
			}
		}
	}))

	// FreshProbeMemo is the reference path: it neither imports nor
	// exports, even with both hooks set.
	topo := cluster.NewSummitTopology(devs)
	sinkCalled := false
	p, err := NewPlanner(g, costmodel.NewDefault(topo), Options{
		Workers:        1,
		FreshProbeMemo: true,
		WarmMemo: func(memosnap.Key) *memosnap.Snapshot {
			t.Error("FreshProbeMemo consulted WarmMemo")
			return nil
		},
		MemoSink: func(*memosnap.Snapshot) { sinkCalled = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Plan(mb)
	if err != nil {
		t.Fatal(err)
	}
	if sinkCalled {
		t.Error("FreshProbeMemo exported a snapshot")
	}
	if !bytes.Equal(planBytes(t, r.Strategy, devs, mb), coldBytes) {
		t.Error("FreshProbeMemo plan diverged")
	}
}

// TestSnapshotKeySensitivity pins which inputs the compatibility key
// tracks: structural options and cost observables change it, the device
// count on the summit preset does not (that is what makes elastic replans
// warm, across node boundaries too), and a different topology at the same
// device count does.
func TestSnapshotKeySensitivity(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	keyOn := func(topo *cluster.Topology, opts Options) memosnap.Key {
		p, err := NewPlanner(g, costmodel.NewDefault(topo), opts)
		if err != nil {
			t.Fatal(err)
		}
		return p.snapshotKey()
	}
	keyFor := func(devices int, opts Options) memosnap.Key {
		return keyOn(cluster.NewSummitTopology(devices), opts)
	}
	base := keyFor(4, Options{})
	for _, devices := range []int{2, 8, 16} {
		if k := keyFor(devices, Options{}); k != base {
			t.Errorf("summit device count %d changed the key: %+v vs %+v", devices, k, base)
		}
	}
	if k := keyOn(cluster.NewUniformTopology(4, 16e9, 150e9), Options{}); k.CostSig == base.CostSig {
		t.Error("a non-summit topology at the same device count kept the cost signature")
	}
	if k := keyFor(4, Options{DisableSinkAnchoredSplits: true}); k.ShapeSig == base.ShapeSig {
		t.Error("split-rule change kept the shape signature")
	}
	if k := keyFor(4, Options{ForcedMicroBatch: 8}); k.ShapeSig == base.ShapeSig {
		t.Error("forced micro-batch kept the shape signature")
	}
	g2 := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	p2, err := NewPlanner(g2, costmodel.NewDefault(topo), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.snapshotKey().GraphHash == base.GraphHash {
		t.Error("different graphs share a graph hash")
	}
}
