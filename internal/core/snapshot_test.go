package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
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

// outcome is one summit plan with its search statistics.
type outcome struct {
	st *strategy.Strategy
	planner.Stats
}

func planOutcome(t *testing.T, g *graph.Graph, devices, mb int, opts planner.Options) outcome {
	t.Helper()
	st, stats := planFor(t, g, devices, mb, opts)
	return outcome{st, stats}
}

// coldSnapshot plans cold with a sink attached and returns both.
func coldSnapshot(t *testing.T, g *graph.Graph, devices, mb int) (outcome, *memosnap.Snapshot) {
	t.Helper()
	var snap *memosnap.Snapshot
	r := planOutcome(t, g, devices, mb, planner.Options{
		Workers:  1,
		MemoSink: func(s *memosnap.Snapshot) { snap = s },
	})
	if snap == nil {
		t.Fatal("MemoSink never called")
	}
	return r, snap
}

func warmPlan(t *testing.T, g *graph.Graph, devices, mb int, snap *memosnap.Snapshot) outcome {
	t.Helper()
	return warmPlanWorkers(t, g, devices, mb, 1, snap)
}

func warmPlanWorkers(t *testing.T, g *graph.Graph, devices, mb, workers int, snap *memosnap.Snapshot) outcome {
	t.Helper()
	return planOutcome(t, g, devices, mb, planner.Options{
		Workers:  workers,
		WarmMemo: func(k memosnap.Key) *memosnap.Snapshot { return snap },
	})
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
	if !bytes.Equal(planBytes(t, warm.st, devs, mb), planBytes(t, cold.st, devs, mb)) {
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
	colds := map[int]outcome{devs: cold}
	snaps := map[int]*memosnap.Snapshot{devs: snap}
	for _, d := range []int{devs / 2, 2 * devs} {
		colds[d], snaps[d] = coldSnapshot(t, g, d, mb)
	}
	for _, c := range []struct{ from, to int }{
		{devs, devs / 2}, {2 * devs, devs}, {devs / 2, devs}, {devs, 2 * devs},
	} {
		coldTo := colds[c.to]
		warmTo := warmPlan(t, g, c.to, mb, snaps[c.from])
		if !bytes.Equal(planBytes(t, warmTo.st, c.to, mb), planBytes(t, coldTo.st, c.to, mb)) {
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
	if !bytes.Equal(planBytes(t, warmMB.st, devs, 2*mb), planBytes(t, coldMB.st, devs, 2*mb)) {
		t.Error("warm plan at doubled mini-batch diverged from cold")
	}
	if warmMB.MemoWarmStarted {
		t.Error("doubled mini-batch claimed a warm start with no matching SearchMemo")
	}
}

// TestWarmParallelFromLargerSnapshot replans MMT at 8 devices with four
// workers, warm-started from a 16-device snapshot, and requires the bytes
// of the cold plan. Concurrent walkers look up entries in different memo
// shards whose values share derivation nodes, so the on-demand node build
// is exercised from several goroutines at once; CI's race step runs this
// test.
func TestWarmParallelFromLargerSnapshot(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const mb = 64
	_, snap := coldSnapshot(t, g, 16, mb)
	cold, _ := coldSnapshot(t, g, 8, mb)
	warm := warmPlanWorkers(t, g, 8, mb, 4, snap)
	if !bytes.Equal(planBytes(t, warm.st, 8, mb), planBytes(t, cold.st, 8, mb)) {
		t.Error("parallel warm replan 16→8 diverged from the cold plan")
	}
	if !warm.MemoWarmStarted || warm.MemoEntriesReused == 0 {
		t.Errorf("parallel warm replan reused nothing: %+v", warm)
	}
}

// TestWarmImportIsLazy pins what an import costs: a replan builds only
// the derivation nodes its probes reach, not the whole imported forest.
// It drives Plan's per-micro-batch searches directly so it can read each
// search's imported memo afterwards.
func TestWarmImportIsLazy(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const mb = 64
	_, snap := coldSnapshot(t, g, 8, mb)

	p, err := newPartitioner(g, costmodel.NewDefault(cluster.NewSummitTopology(4)), planner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := p.zones.intern(p.dec.Root())
	p.zones.resolveAll(root)
	bCands := planner.MicroBatchCandidates(mb, 0, p.opts.MaxMicroBatch)
	maxTPS := p.model.MaxTPS(g, mb)
	held, built := 0, 0
	for _, b := range bCands {
		var out perB
		p.searchMicroBatch(&out, b, mb, bCands, maxTPS, epsilon*maxTPS, root, nil, snap)
		if !out.warmed {
			t.Fatalf("micro-batch %d: snapshot not imported", b)
		}
		w := out.search.memo.warm
		held += len(w.nodes)
		for _, r := range w.built {
			if r != nil {
				built++
			}
		}
	}
	t.Logf("8→4 replan built %d of %d imported derivation nodes", built, held)
	if built == 0 || built >= held {
		t.Errorf("replan built %d of %d imported nodes; want some, not all", built, held)
	}
}

// TestCrossSizeEntryEquivalence checks warm start below the plans, at the
// level of memo entries: MMT planned on 6, 7 and 8 summit devices must
// give every key two snapshots share the same derivation tree, node for
// node, wherever the two validity intervals overlap. That is what lets
// Merge union snapshots of different device counts. The sizes are not
// multiples of 4: at 4 vs 8 summit's periodic class ids would hide a
// class id that names different blocks at different sizes, and a wrong
// entry need not change a final plan, so TestWarmColdEquivalence alone
// cannot see one.
func TestCrossSizeEntryEquivalence(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const mb = 128
	snaps := map[int]*memosnap.Snapshot{}
	for _, d := range []int{6, 7, 8} {
		_, snaps[d] = coldSnapshot(t, g, d, mb)
	}
	for _, pair := range [][2]int{{6, 8}, {7, 8}, {6, 7}} {
		overlapping, mismatched := 0, 0
		for i := range snaps[pair[0]].Searches {
			a := &snaps[pair[0]].Searches[i]
			b := snaps[pair[1]].Search(int(a.MiniBatch), int(a.RootB))
			if b == nil {
				continue
			}
			if !slices.Equal(a.Configs, b.Configs) || !slices.Equal(a.Boundary, b.Boundary) || a.NumZones != b.NumZones {
				t.Fatalf("%d vs %d devices: search (%d,%d) has another keyspace", pair[0], pair[1], a.MiniBatch, a.RootB)
			}
			for _, x := range sharedVariants(a.Entries, b.Entries) {
				overlapping++
				if !sameTree(a, x[0].Val, b, x[1].Val) {
					mismatched++
					if mismatched <= 3 {
						t.Errorf("%d vs %d devices: key %#x, [%g, %g) vs [%g, %g): derivation trees differ",
							pair[0], pair[1], x[0].Key, x[0].Lo, x[0].Hi, x[1].Lo, x[1].Hi)
					}
				}
			}
		}
		t.Logf("%d vs %d devices: %d overlapping variant pairs, %d mismatched", pair[0], pair[1], overlapping, mismatched)
		if overlapping == 0 {
			t.Errorf("%d vs %d devices: no shared key with overlapping intervals; the check is vacuous", pair[0], pair[1])
		}
	}
}

// sharedVariants pairs every variant of a with every variant of b that has
// the same key and an overlapping validity interval. Both lists are sorted
// by key.
func sharedVariants(a, b []memosnap.Entry) [][2]memosnap.Entry {
	var out [][2]memosnap.Entry
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].Key < b[j].Key:
			i++
		case a[i].Key > b[j].Key:
			j++
		default:
			ie, je := i, j
			for ie < len(a) && a[ie].Key == a[i].Key {
				ie++
			}
			for je < len(b) && b[je].Key == b[j].Key {
				je++
			}
			for _, x := range a[i:ie] {
				for _, y := range b[j:je] {
					if x.Lo < y.Hi && y.Lo < x.Hi {
						out = append(out, [2]memosnap.Entry{x, y})
					}
				}
			}
			i, j = ie, je
		}
	}
	return out
}

// sameTree reports whether node i of a and node j of b root the same
// derivation tree: equal fields at every node, children compared in order.
func sameTree(a *memosnap.SearchMemo, i int32, b *memosnap.SearchMemo, j int32) bool {
	if i == memosnap.Infeasible || j == memosnap.Infeasible {
		return i == j
	}
	x, y := a.Nodes[i], b.Nodes[j]
	if x.Leaf != y.Leaf || x.Zone != y.Zone || x.Devs != y.Devs || x.NStages != y.NStages ||
		x.Cfg != y.Cfg || x.InFlight != y.InFlight || x.Mem != y.Mem || x.TPS != y.TPS {
		return false
	}
	return x.Leaf || sameTree(a, x.Left, b, y.Left) && sameTree(a, x.Right, b, y.Right)
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
	p2, err := newPartitioner(g, costmodel.NewDefault(topo), planner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2.zones.resolveAll(p2.zones.intern(p2.dec.Root()))
	re := &memosnap.Snapshot{Key: decoded.Key}
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
	coldBytes := planBytes(t, cold.st, devs, mb)

	check := func(name string, snap *memosnap.Snapshot) {
		t.Helper()
		r := warmPlan(t, g, devs, mb, snap)
		if r.MemoWarmStarted || r.MemoEntriesReused != 0 {
			t.Errorf("%s: imported anyway: %+v", name, r)
		}
		if !bytes.Equal(planBytes(t, r.st, devs, mb), coldBytes) {
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
	sinkCalled := false
	st, _ := planFor(t, g, devs, mb, planner.Options{
		Workers:        1,
		FreshProbeMemo: true,
		WarmMemo: func(memosnap.Key) *memosnap.Snapshot {
			t.Error("FreshProbeMemo consulted WarmMemo")
			return nil
		},
		MemoSink: func(*memosnap.Snapshot) { sinkCalled = true },
	})
	if sinkCalled {
		t.Error("FreshProbeMemo exported a snapshot")
	}
	if !bytes.Equal(planBytes(t, st, devs, mb), coldBytes) {
		t.Error("FreshProbeMemo plan diverged")
	}
}

// TestMemoSinkSpan pins the memo.sink span: Plan wraps its MemoSink call
// in exactly one, so whatever the sink does (a memostore merge) is not
// counted as Plan's own time, and a Plan without a sink records none.
func TestMemoSinkSpan(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	const devs, mb = 4, 64
	for _, withSink := range []bool{true, false} {
		var mu sync.Mutex
		open, done := map[string]int{}, map[string]int{}
		opts := planner.Options{
			Workers: 1,
			Span: func(name string, _ ...string) func() {
				mu.Lock()
				open[name]++
				mu.Unlock()
				return func() {
					mu.Lock()
					open[name]--
					done[name]++
					mu.Unlock()
				}
			},
		}
		sinkInSpan := false
		if withSink {
			opts.MemoSink = func(*memosnap.Snapshot) {
				mu.Lock()
				sinkInSpan = open["memo.sink"] == 1
				mu.Unlock()
			}
		}
		planFor(t, g, devs, mb, opts)
		want := 0
		if withSink {
			want = 1
			if !sinkInSpan {
				t.Error("MemoSink ran outside the memo.sink span")
			}
		}
		if done["memo.sink"] != want || open["memo.sink"] != 0 {
			t.Errorf("sink set %v: %d memo.sink spans ended (%d left open), want %d",
				withSink, done["memo.sink"], open["memo.sink"], want)
		}
		if done["dp.probe"] == 0 {
			t.Errorf("sink set %v: no dp.probe span; the hook is not wired", withSink)
		}
	}
}

// TestSnapshotKeySensitivity pins which inputs the compatibility key
// tracks: structural options and cost observables change it, the device
// count on the summit preset does not (that is what makes elastic replans
// warm, across node boundaries too), and a different topology at the same
// device count does. The micro-batch cap counts as the search applies it:
// leaving it unset and spelling out the default share a key.
func TestSnapshotKeySensitivity(t *testing.T) {
	g := models.MMT(models.DefaultMMTConfig())
	keyOn := func(topo *cluster.Topology, opts planner.Options) memosnap.Key {
		p, err := newPartitioner(g, costmodel.NewDefault(topo), opts)
		if err != nil {
			t.Fatal(err)
		}
		return p.snapshotKey()
	}
	keyFor := func(devices int, opts planner.Options) memosnap.Key {
		return keyOn(cluster.NewSummitTopology(devices), opts)
	}
	base := keyFor(4, planner.Options{})
	for _, devices := range []int{2, 8, 16} {
		if k := keyFor(devices, planner.Options{}); k != base {
			t.Errorf("summit device count %d changed the key: %+v vs %+v", devices, k, base)
		}
	}
	if k := keyOn(cluster.NewUniformTopology(4, 16e9, 150e9), planner.Options{}); k.CostSig == base.CostSig {
		t.Error("a non-summit topology at the same device count kept the cost signature")
	}
	if k := keyFor(4, planner.Options{DisableSinkAnchoredSplits: true}); k.ShapeSig == base.ShapeSig {
		t.Error("split-rule change kept the shape signature")
	}
	if k := keyFor(4, planner.Options{ForcedMicroBatch: 8}); k.ShapeSig == base.ShapeSig {
		t.Error("forced micro-batch kept the shape signature")
	}
	if k := keyFor(4, planner.Options{MaxMicroBatch: planner.DefaultMaxMicroBatch}); k != base {
		t.Errorf("the default micro-batch cap spelled out changed the key: %+v vs %+v", k, base)
	}
	if k := keyFor(4, planner.Options{MaxMicroBatch: 64}); k.ShapeSig == base.ShapeSig {
		t.Error("a lower micro-batch cap kept the shape signature")
	}
	g2 := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	p2, err := newPartitioner(g2, costmodel.NewDefault(topo), planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.snapshotKey().GraphHash == base.GraphHash {
		t.Error("different graphs share a graph hash")
	}
}
