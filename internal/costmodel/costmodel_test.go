package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/spgraph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("cm")
	in := b.AddOp(graph.Op{Name: "in", Kind: graph.OpInput, OutputBytes: 1e3})
	l1 := b.AddOp(graph.Op{Name: "l1", Kind: graph.OpLinear, FwdFLOPs: 1e9, ParamBytes: 1e6, ActivationBytes: 1e5, OutputBytes: 1e4})
	l2 := b.AddOp(graph.Op{Name: "l2", Kind: graph.OpLinear, FwdFLOPs: 2e9, BwdFLOPs: 5e9, ParamBytes: 2e6, ActivationBytes: 2e5, OutputBytes: 1e4})
	em := b.AddOp(graph.Op{Name: "emb", Kind: graph.OpEmbedding, FwdFLOPs: 1e5, ParamBytes: 1e8, ActivationBytes: 1e4, OutputBytes: 1e4})
	b.Chain(in, l1, l2)
	b.Connect(in, em)
	return b.MustBuild()
}

func model(t testing.TB, n int) *Analytic {
	t.Helper()
	return New(DefaultParams(), cluster.NewSummitTopology(n))
}

func TestEfficiencyMonotone(t *testing.T) {
	m := model(t, 4)
	prev := 0.0
	for b := 1; b <= 1024; b *= 2 {
		e := m.efficiency(graph.OpLinear, float64(b))
		if e <= prev {
			t.Fatalf("efficiency not increasing at b=%d: %g <= %g", b, e, prev)
		}
		if e >= 1 {
			t.Fatalf("efficiency >= 1 at b=%d", b)
		}
		prev = e
	}
	// Unknown kinds get a default saturation scale.
	if e := m.efficiency(graph.OpKind(77), 4); e <= 0 || e >= 1 {
		t.Errorf("default efficiency out of range: %g", e)
	}
	if e := m.efficiency(graph.OpLinear, 0); e != 1 {
		t.Errorf("zero-batch efficiency = %g, want 1", e)
	}
}

func TestOpTimesScaleWithBatch(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	dev := m.Topology().Device(0)
	op := g.Op(1) // l1
	t1 := m.OpForwardTime(op, 1, dev)
	t8 := m.OpForwardTime(op, 8, dev)
	if t8 <= t1 {
		t.Fatalf("forward time should grow with batch: %g vs %g", t8, t1)
	}
	// Super-linear efficiency: 8x batch takes less than 8x time.
	if t8 >= 8*t1 {
		t.Fatalf("per-sample time should shrink with batch: t8=%g t1=%g", t8, t1)
	}
	if m.OpForwardTime(op, 0, dev) != 0 {
		t.Error("zero batch should cost zero time")
	}
}

func TestBackwardDefaultsToTwiceForward(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	dev := m.Topology().Device(0)
	l1 := g.Op(1) // no explicit BwdFLOPs
	fw := m.OpForwardTime(l1, 64, dev)
	bw := m.OpBackwardTime(l1, 64, dev)
	// At batch 64 overhead is negligible; backward ≈ 2x forward.
	if ratio := bw / fw; ratio < 1.7 || ratio > 2.3 {
		t.Errorf("backward/forward ratio = %g, want ≈2", ratio)
	}
	l2 := g.Op(2) // explicit BwdFLOPs = 2.5x
	fw2 := m.OpForwardTime(l2, 64, dev)
	bw2 := m.OpBackwardTime(l2, 64, dev)
	if ratio := bw2 / fw2; ratio < 2.2 || ratio > 2.8 {
		t.Errorf("explicit backward ratio = %g, want ≈2.5", ratio)
	}
}

func TestEmbeddingIsMemoryBound(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	dev := m.Topology().Device(0)
	emb := g.Op(3)
	got := m.OpForwardTime(emb, 1024, dev)
	// Roofline floor: bytes moved / mem bandwidth.
	floor := (emb.ActivationBytes + emb.OutputBytes) * 1024 / dev.MemBandwidth
	if got < floor {
		t.Errorf("embedding time %g below roofline floor %g", got, floor)
	}
	// The FLOP path alone would be much cheaper than the floor.
	flopTime := emb.FwdFLOPs * 1024 / dev.PeakFLOPS
	if flopTime >= floor {
		t.Fatalf("test setup wrong: flop time %g should be below mem floor %g", flopTime, floor)
	}
}

func TestStageCosts(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	cfg := StageConfig{Ops: graph.NodeSetOf(1, 2), MicroBatch: 8, DataPar: 1}
	c := m.Stage(g, cfg)
	if c.ForwardTime <= 0 || c.BackwardTime <= c.ForwardTime {
		t.Errorf("stage times implausible: %+v", c)
	}
	if c.WeightBytes != (1e6+2e6)*4 {
		t.Errorf("WeightBytes = %g", c.WeightBytes)
	}
	if c.ActivationBytesPerSample != 3e5 {
		t.Errorf("ActivationBytesPerSample = %g", c.ActivationBytesPerSample)
	}
	if c.CommInTime <= 0 {
		t.Error("stage receiving input should have CommInTime > 0")
	}
	if c.AllreducePerIter != 0 {
		t.Error("DataPar=1 should have no allreduce")
	}
}

func TestDataParallelSplitsComputeAddsAllreduce(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	one := m.Stage(g, StageConfig{Ops: graph.NodeSetOf(1, 2), MicroBatch: 32, DataPar: 1})
	two := m.Stage(g, StageConfig{Ops: graph.NodeSetOf(1, 2), MicroBatch: 32, DataPar: 2})
	if two.ForwardTime >= one.ForwardTime {
		t.Errorf("data parallelism should shrink per-replica time: %g vs %g", two.ForwardTime, one.ForwardTime)
	}
	if two.AllreducePerIter <= 0 {
		t.Error("DataPar=2 should pay allreduce")
	}
	if two.ActivationBytesPerSample >= one.ActivationBytesPerSample {
		t.Error("activations should be split across replicas")
	}
	// Weights are replicated, not split.
	if two.WeightBytes != one.WeightBytes {
		t.Errorf("weights should be replicated: %g vs %g", two.WeightBytes, one.WeightBytes)
	}
}

func TestInterNodeSlowsComm(t *testing.T) {
	m := model(t, 8)
	g := testGraph(t)
	intra := m.Stage(g, StageConfig{Ops: graph.NodeSetOf(1), MicroBatch: 8, DataPar: 1})
	inter := m.Stage(g, StageConfig{Ops: graph.NodeSetOf(1), MicroBatch: 8, DataPar: 1, InterNode: true})
	if inter.CommInTime <= intra.CommInTime {
		t.Errorf("inter-node comm should be slower: %g vs %g", inter.CommInTime, intra.CommInTime)
	}
}

func TestTPSDecreasesWithMicroBatch(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	prev := -1.0
	for b := 1; b <= 64; b *= 2 {
		tps := m.TPS(g, StageConfig{Ops: graph.NodeSetOf(1, 2), MicroBatch: b, DataPar: 1}, 128)
		if prev > 0 && tps >= prev {
			t.Fatalf("TPS should fall with micro-batch size (operational intensity): b=%d tps=%g prev=%g", b, tps, prev)
		}
		prev = tps
	}
}

func TestStageMemoryAndFits(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	cfg := StageConfig{Ops: graph.NodeSetOf(1, 2), MicroBatch: 4, DataPar: 1}
	m0 := m.StageMemory(g, cfg, 0)
	m8 := m.StageMemory(g, cfg, 8)
	if m8 <= m0 {
		t.Error("memory should grow with in-flight samples")
	}
	if want := m0 + 8*3e5; m8 != want {
		t.Errorf("StageMemory(8) = %g, want %g", m8, want)
	}
	if !m.FitsMemory(g, cfg, 8) {
		t.Error("small stage should fit V100 memory")
	}
	// A tiny device budget must fail.
	tiny := NewDefault(cluster.NewUniformTopology(2, 1e6, 1e9))
	if tiny.FitsMemory(g, cfg, 8) {
		t.Error("stage should not fit 1MB budget")
	}
}

func TestMaxTPSBounds(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	max := m.MaxTPS(g, 64)
	// Any single-op stage at any micro-batch must be under MaxTPS.
	for b := 1; b <= 64; b *= 2 {
		for op := 0; op < g.Len(); op++ {
			tps := m.TPS(g, StageConfig{Ops: graph.NodeSetOf(graph.NodeID(op)), MicroBatch: b, DataPar: 1, InterNode: true}, 64)
			if tps > max {
				t.Fatalf("op %d at b=%d has TPS %g > MaxTPS %g", op, b, tps, max)
			}
		}
	}
}

// Property: stage costs are additive in ops — cost(A ∪ B) ≥ cost(A) for the
// pure compute components, and weight bytes are exactly additive.
func TestStageCostAdditiveProperty(t *testing.T) {
	m := model(t, 4)
	g := testGraph(t)
	f := func(pick uint8) bool {
		var set graph.NodeSet
		for i := 0; i < g.Len(); i++ {
			if pick&(1<<uint(i)) != 0 {
				set.Add(graph.NodeID(i))
			}
		}
		if set.Empty() {
			return true
		}
		whole := m.Stage(g, StageConfig{Ops: set, MicroBatch: 8, DataPar: 1})
		var wsum float64
		for _, id := range set.IDs() {
			wsum += g.Op(id).ParamBytes * m.Params().WeightStateMultiplier
		}
		return whole.WeightBytes == wsum && whole.ForwardTime > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceStage is Stage as it stood before the single-pass rewrite: it
// lists the operator set's ids, times each operator on one device of every
// class in the block through the per-operator methods, sums the gradient
// bytes in a second pass over the ids, and finds the largest incoming
// activation stream by scanning every node of the graph. The rewrite must
// reproduce it bit for bit.
func referenceStage(m *Analytic, g *graph.Graph, cfg StageConfig) StageCosts {
	if cfg.DataPar < 1 {
		cfg.DataPar = 1
	}
	devs := referenceBlockDevices(m, cfg)
	perDev := float64(cfg.MicroBatch) / float64(cfg.DataPar)

	var out StageCosts
	for _, id := range cfg.Ops.IDs() {
		op := g.Op(id)
		var fwd, bwd float64
		for _, dev := range devs {
			if t := referenceOpTime(m, op, op.FwdFLOPs, perDev, dev); t > fwd {
				fwd = t
			}
			if t := referenceOpTime(m, op, referenceBackwardFLOPs(m, op), perDev, dev); t > bwd {
				bwd = t
			}
		}
		out.ForwardTime += fwd
		out.BackwardTime += bwd
		out.WeightBytes += op.ParamBytes * m.params.WeightStateMultiplier
		out.ActivationBytesPerSample += op.ActivationBytes / float64(cfg.DataPar)
	}

	inBytes := referenceMaxInEdgeBytes(g, cfg.Ops) * float64(cfg.MicroBatch)
	gradBytes := 0.0
	if cfg.DataPar > 1 {
		for _, id := range cfg.Ops.IDs() {
			gradBytes += g.Op(id).ParamBytes
		}
	}
	if cfg.Place.Count > 0 {
		lvl := m.topo.InLinkLevel(cfg.Place.Start)
		if inBytes > 0 {
			out.CommInTime = inBytes/m.topo.LevelDown(lvl) + m.topo.LevelLatency(lvl)
			out.CommBackTime = inBytes/m.topo.LevelUp(lvl) + m.topo.LevelLatency(lvl)
		}
		if cfg.DataPar > 1 {
			wide := m.topo.LinkLevel(
				cluster.DeviceID(cfg.Place.Start),
				cluster.DeviceID(cfg.Place.Start+cfg.Place.Count-1))
			arBW := math.Min(m.topo.LevelDown(wide), m.topo.LevelUp(wide))
			d := float64(cfg.DataPar)
			out.AllreducePerIter = 2 * (d - 1) / d * gradBytes / arBW
		}
		return out
	}
	inner, outer := 0, m.topo.LevelCount()-1
	if inBytes > 0 {
		lvl := inner
		if cfg.InterNode {
			lvl = outer
		}
		out.CommInTime = inBytes/m.topo.LevelDown(lvl) + m.topo.LevelLatency(inner)
		out.CommBackTime = out.CommInTime
	}
	if cfg.DataPar > 1 {
		arBW := m.topo.LevelDown(inner)
		if cfg.InterNodeAllreduce {
			arBW = m.topo.LevelDown(outer)
		}
		d := float64(cfg.DataPar)
		out.AllreducePerIter = 2 * (d - 1) / d * gradBytes / arBW
	}
	return out
}

// referenceBlockDevices returns one device per distinct class in the
// stage's block, in first-occurrence order, or device 0 without a block.
func referenceBlockDevices(m *Analytic, cfg StageConfig) []cluster.Device {
	if cfg.Place.Count <= 0 {
		return []cluster.Device{m.topo.Device(0)}
	}
	var devs []cluster.Device
	seen := -1
	for i := cfg.Place.Start; i < cfg.Place.Start+cfg.Place.Count; i++ {
		c := m.topo.ClassOf(cluster.DeviceID(i))
		if c == seen {
			continue
		}
		dup := false
		for j := cfg.Place.Start; j < i; j++ {
			if m.topo.ClassOf(cluster.DeviceID(j)) == c {
				dup = true
				break
			}
		}
		if !dup {
			devs = append(devs, m.topo.Device(cluster.DeviceID(i)))
		}
		seen = c
	}
	return devs
}

func referenceBackwardFLOPs(m *Analytic, op graph.Op) float64 {
	flops := op.BwdFLOPs
	if flops == 0 && op.FwdFLOPs > 0 {
		flops = op.FwdFLOPs * m.params.BackwardFLOPFactor
	}
	return flops
}

func referenceOpTime(m *Analytic, op graph.Op, flopsPerSample, perDeviceBatch float64, dev cluster.Device) float64 {
	if perDeviceBatch <= 0 {
		return 0
	}
	half, ok := m.params.HalfSat[op.Kind]
	if !ok {
		half = 4
	}
	eff := perDeviceBatch / (perDeviceBatch + half)
	compute := flopsPerSample * perDeviceBatch / (dev.PeakFLOPS * eff)
	bytesMoved := (op.ActivationBytes + op.OutputBytes) * perDeviceBatch
	membound := bytesMoved / dev.MemBandwidth
	return math.Max(compute, membound) + m.params.KernelOverhead
}

func referenceMaxInEdgeBytes(g *graph.Graph, set graph.NodeSet) float64 {
	var max float64
	for v := 0; v < g.Len(); v++ {
		id := graph.NodeID(v)
		if set.Contains(id) {
			continue
		}
		for _, w := range g.Succ(id) {
			if set.Contains(w) {
				if ob := g.Op(id).OutputBytes; ob > max {
					max = ob
				}
				break
			}
		}
	}
	return max
}

// paperGraphs are the paper models, the A.3 chain, and an MMT wide enough
// that its operator sets span two bitset words.
func paperGraphs() []*graph.Graph {
	return []*graph.Graph{
		models.MMT(models.DefaultMMTConfig()),
		models.MMT(models.MMTConfig{Branches: 8, LayersPerBranch: 8, Layer: models.DefaultTransformerConfig()}),
		models.DLRM(models.DefaultDLRMConfig()),
		models.CANDLEUno(models.DefaultCANDLEUnoConfig()),
		models.SequentialTransformer(32),
	}
}

// referenceGraphs are the graphs the reference comparison runs on: the
// paper graphs and three synth families.
func referenceGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	gs := paperGraphs()
	for _, spec := range []string{"synth:fanout/seed=3", "synth:nested/seed=2", "synth:mixed/seed=5"} {
		g, _, err := models.Build(spec, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// referenceSets returns the operator sets the comparison costs: the whole
// graph, contiguous ranges of the topological order (PipeDream's stages),
// a branch (a GraphPipe zone) and seeded random subsets of three
// densities.
func referenceSets(g *graph.Graph, seed int64) []graph.NodeSet {
	sets := []graph.NodeSet{g.AllNodes(), branchZone(g)}
	topo := g.Topo()
	for _, r := range [][2]int{{0, len(topo) / 3}, {len(topo) / 4, len(topo) / 2}, {len(topo) / 2, len(topo)}} {
		sets = append(sets, graph.NodeSetOf(topo[r[0]:r[1]]...))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for i := 0; i < 3; i++ {
			var s graph.NodeSet
			for v := 0; v < g.Len(); v++ {
				if rng.Float64() < p {
					s.Add(graph.NodeID(v))
				}
			}
			sets = append(sets, s)
		}
	}
	return sets
}

// sameBits reports the first StageCosts field whose bits differ, or "".
func sameBits(got, want StageCosts) string {
	fields := []struct {
		name string
		g, w float64
	}{
		{"ForwardTime", got.ForwardTime, want.ForwardTime},
		{"BackwardTime", got.BackwardTime, want.BackwardTime},
		{"CommInTime", got.CommInTime, want.CommInTime},
		{"CommBackTime", got.CommBackTime, want.CommBackTime},
		{"AllreducePerIter", got.AllreducePerIter, want.AllreducePerIter},
		{"WeightBytes", got.WeightBytes, want.WeightBytes},
		{"ActivationBytesPerSample", got.ActivationBytesPerSample, want.ActivationBytesPerSample},
	}
	for _, f := range fields {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s = %v (%#x), reference %v (%#x)", f.name, f.g, math.Float64bits(f.g), f.w, math.Float64bits(f.w))
		}
	}
	return ""
}

// TestStageMatchesReference pins Stage to the reference body bit for bit:
// every StageCosts field, on the paper models and synth graphs, for seeded
// operator subsets, at micro-batches 1, 3 and 64 and data-parallel degrees
// 1, 2, 3 and 8, without placement under each InterNode and
// InterNodeAllreduce combination and on every block of three topologies.
func TestStageMatchesReference(t *testing.T) {
	// A placement is a model plus the StageConfig fields that say where
	// the stage lands.
	type placement struct {
		m    *Analytic
		name string
		cfg  StageConfig
	}
	var places []placement
	for _, c := range []struct {
		topo    string
		devices int
	}{{"", 16}, {"topo:hetero-speed/seed=7", 8}, {"topo:hierarchical/seed=1", 16}} {
		topo, err := models.Topology(c.topo, c.devices)
		if err != nil {
			t.Fatal(err)
		}
		m := NewDefault(topo)
		if c.topo == "" {
			for _, inter := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				places = append(places, placement{m, fmt.Sprintf("summit@%d unplaced inter=%v", c.devices, inter),
					StageConfig{InterNode: inter[0], InterNodeAllreduce: inter[1]}})
			}
		}
		for start := 0; start < c.devices; start++ {
			for count := 1; start+count <= c.devices; count++ {
				places = append(places, placement{m, fmt.Sprintf("%q@%d block %d+%d", c.topo, c.devices, start, count),
					StageConfig{Place: cluster.Block{Start: start, Count: count}}})
			}
		}
	}
	calls := 0
	for gi, g := range referenceGraphs(t) {
		for si, ops := range referenceSets(g, int64(gi+1)) {
			for _, pl := range places {
				for _, b := range []int{1, 3, 64} {
					for _, d := range []int{1, 2, 3, 8} {
						cfg := pl.cfg
						cfg.Ops, cfg.MicroBatch, cfg.DataPar = ops, b, d
						calls++
						if diff := sameBits(pl.m.Stage(g, cfg), referenceStage(pl.m, g, cfg)); diff != "" {
							t.Fatalf("%s set %d %v, %s, b=%d d=%d: %s", g.Name(), si, ops, pl.name, b, d, diff)
						}
					}
				}
			}
		}
	}
	t.Logf("%d Stage calls match the reference", calls)
}

// TestOpTimesMatchReference pins the per-operator methods to the reference
// formula on every operator of the reference graphs and every device class
// of a heterogeneous topology.
func TestOpTimesMatchReference(t *testing.T) {
	topo, err := models.Topology("topo:hetero-speed/seed=7", 8)
	if err != nil {
		t.Fatal(err)
	}
	m := NewDefault(topo)
	for _, g := range referenceGraphs(t) {
		for _, op := range g.Ops() {
			for _, dev := range topo.Devices() {
				for _, b := range []float64{0, 0.5, 1, 3, 64} {
					if got, want := m.OpForwardTime(op, b, dev), referenceOpTime(m, op, op.FwdFLOPs, b, dev); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s forward at b=%g on device %d: %v, reference %v", g.Name(), op.Name, b, dev.ID, got, want)
					}
					if got, want := m.OpBackwardTime(op, b, dev), referenceOpTime(m, op, referenceBackwardFLOPs(m, op), b, dev); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s backward at b=%g on device %d: %v, reference %v", g.Name(), op.Name, b, dev.ID, got, want)
					}
				}
			}
		}
	}
}

// paperStages returns the two stage shapes the planners cost most: a
// PipeDream stage (a range of the topological order, no placement) and a
// GraphPipe zone (one branch of the model, from the series-parallel
// decomposition) on a Summit block that crosses a node boundary.
func paperStages(g *graph.Graph) (chainRange, zone StageConfig) {
	topo := g.Topo()
	chainRange = StageConfig{Ops: graph.NodeSetOf(topo[len(topo)/4 : len(topo)/2]...),
		MicroBatch: 16, DataPar: 2, InterNode: true}
	zone = StageConfig{Ops: branchZone(g), MicroBatch: 16, DataPar: 4, Place: cluster.Block{Start: 2, Count: 4}}
	return chainRange, zone
}

// branchZone returns a branch of g as the series-parallel decomposition
// sees it: the first weakly connected component of the first root series
// split whose left part has more than one. It returns the first half of
// the topological order when no such split exists.
func branchZone(g *graph.Graph) graph.NodeSet {
	d := spgraph.New(g)
	for _, sp := range d.SeriesSplits(d.Root()) {
		if comps := d.Components(sp.Left); len(comps) > 1 {
			return comps[0]
		}
	}
	return graph.NodeSetOf(g.Topo()[:g.Len()/2]...)
}

// TestStageAllocatesNothing gates the rewrite's other half: one Stage call
// on a paper-model stage allocates nothing, placed or not.
func TestStageAllocatesNothing(t *testing.T) {
	m := NewDefault(cluster.NewSummitTopology(16))
	for _, g := range paperGraphs() {
		chainRange, zone := paperStages(g)
		for _, cfg := range []StageConfig{chainRange, zone} {
			if n := testing.AllocsPerRun(100, func() { m.Stage(g, cfg) }); n != 0 {
				t.Errorf("%s: Stage(%v, place %+v) allocates %v times per call", g.Name(), cfg.Ops, cfg.Place, n)
			}
		}
	}
}

// stageSink keeps the benchmarked calls from being optimized away.
var stageSink StageCosts

// BenchmarkStage times one Stage call, the first rung of the benchmark
// ladder, on the two stage shapes of paperStages over MMT and CANDLE-Uno.
func BenchmarkStage(b *testing.B) {
	m := NewDefault(cluster.NewSummitTopology(16))
	for _, g := range []*graph.Graph{models.MMT(models.DefaultMMTConfig()), models.CANDLEUno(models.DefaultCANDLEUnoConfig())} {
		chainRange, zone := paperStages(g)
		for _, c := range []struct {
			name string
			cfg  StageConfig
		}{{"pipedream-range", chainRange}, {"graphpipe-zone", zone}} {
			b.Run(g.Name()+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stageSink = m.Stage(g, c.cfg)
				}
			})
		}
	}
}
