package models

import (
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/spgraph"
)

func TestMMTStructure(t *testing.T) {
	g := MMT(DefaultMMTConfig())
	// 4 per-branch inputs + 4*8 layers + concat + head = 38 ops.
	if g.Len() != 38 {
		t.Fatalf("MMT ops = %d, want 38", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatalf("MMT fails SP validation: %v", err)
	}
	// One input per branch (per-modality data), each feeding one chain.
	if got := len(g.Sources()); got != 4 {
		t.Errorf("sources = %d, want 4", got)
	}
	for _, src := range g.Sources() {
		if len(g.Succ(src)) != 1 {
			t.Errorf("branch input fanout = %d, want 1", len(g.Succ(src)))
		}
	}
	// Concat has 4 predecessors.
	var concat graph.NodeID = -1
	for _, op := range g.Ops() {
		if op.Kind == graph.OpConcat {
			concat = op.ID
		}
	}
	if concat == -1 || len(g.Pred(concat)) != 4 {
		t.Errorf("concat fan-in wrong")
	}
}

func TestMMTLayerCosts(t *testing.T) {
	lc := DefaultTransformerConfig()
	fl, pb, ab, ob := lc.layerCosts()
	// 24sh² + 4s²h with s=256, h=1024 (FFN=4h).
	s, h := 256.0, 1024.0
	wantFLOPs := 24*s*h*h + 4*s*s*h
	if fl != wantFLOPs {
		t.Errorf("layer FLOPs = %g, want %g", fl, wantFLOPs)
	}
	// 12h² params in fp16.
	if want := 12 * h * h * 2; pb != want {
		t.Errorf("layer param bytes = %g, want %g", pb, want)
	}
	if ab <= 0 || ob != s*h*2 {
		t.Errorf("activation/output bytes implausible: %g, %g", ab, ob)
	}
}

func TestMMTBranchesConfigurable(t *testing.T) {
	for _, br := range []int{2, 4, 8} {
		cfg := DefaultMMTConfig()
		cfg.Branches = br
		g := MMT(cfg)
		if g.Len() != br*9+2 {
			t.Errorf("branches=%d: ops = %d", br, g.Len())
		}
		if err := spgraph.Validate(g); err != nil {
			t.Errorf("branches=%d: %v", br, err)
		}
	}
}

func TestSequentialTransformer(t *testing.T) {
	g := SequentialTransformer(32)
	if g.Len() != 34 {
		t.Fatalf("ops = %d, want 34", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Strictly sequential: every op has at most one successor.
	for _, op := range g.Ops() {
		if len(g.Succ(op.ID)) > 1 {
			t.Errorf("op %s has fanout %d", op.Name, len(g.Succ(op.ID)))
		}
	}
	// Same total parameters as the 4x8 MMT's branch layers.
	mmt := MMT(DefaultMMTConfig())
	seqLayers, mmtLayers := 0.0, 0.0
	for _, op := range g.Ops() {
		if op.Kind == graph.OpAttention {
			seqLayers += op.ParamBytes
		}
	}
	for _, op := range mmt.Ops() {
		if op.Kind == graph.OpAttention {
			mmtLayers += op.ParamBytes
		}
	}
	if seqLayers != mmtLayers {
		t.Errorf("layer params differ: seq %g vs mmt %g", seqLayers, mmtLayers)
	}
}

func TestDLRMStructure(t *testing.T) {
	g := DLRM(DefaultDLRMConfig())
	// 14 inputs + 7*4 dense + 7 embed + interaction + 4 top + output = 55.
	if g.Len() != 55 {
		t.Fatalf("DLRM ops = %d, want 55", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// 14 parallel branches feed the interaction.
	var interact graph.NodeID = -1
	embeds := 0
	for _, op := range g.Ops() {
		if op.Kind == graph.OpInteraction {
			interact = op.ID
		}
		if op.Kind == graph.OpEmbedding {
			embeds++
		}
	}
	if embeds != 7 {
		t.Errorf("embedding ops = %d, want 7", embeds)
	}
	if interact == -1 || len(g.Pred(interact)) != 14 {
		t.Errorf("interaction fan-in = %d, want 14", len(g.Pred(interact)))
	}
	// Embedding tables dominate parameters: 7 × 1M × 64 × 4B = 1.792 GB.
	var embedParams float64
	for _, op := range g.Ops() {
		if op.Kind == graph.OpEmbedding {
			embedParams += op.ParamBytes
		}
	}
	if want := 7.0 * 1e6 * 64 * 4; embedParams != want {
		t.Errorf("embedding params = %g, want %g", embedParams, want)
	}
}

func TestCANDLEUnoStructureAndSweep(t *testing.T) {
	g := CANDLEUno(DefaultCANDLEUnoConfig())
	// 7 inputs + 7*4 layers + concat + output = 37.
	if g.Len() != 37 {
		t.Fatalf("CANDLE-Uno ops = %d, want 37", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, br := range []int{2, 4, 8, 16} {
		cfg := DefaultCANDLEUnoConfig()
		cfg.Branches = br
		gb := CANDLEUno(cfg)
		if gb.Len() != br*5+2 {
			t.Errorf("branches=%d: ops = %d", br, gb.Len())
		}
		if err := spgraph.Validate(gb); err != nil {
			t.Errorf("branches=%d: %v", br, err)
		}
	}
}

func TestCaseStudyStructure(t *testing.T) {
	g := CaseStudy(DefaultCaseStudyConfig())
	// 2 inputs + 2 branches * 4 repeats * 3 ops + concat = 27.
	if g.Len() != 27 {
		t.Fatalf("case study ops = %d, want 27", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	attn, lin := 0, 0
	for _, op := range g.Ops() {
		switch op.Kind {
		case graph.OpAttention:
			attn++
		case graph.OpLinear:
			lin++
		}
	}
	if attn != 8 || lin != 16 {
		t.Errorf("attn=%d lin=%d, want 8/16", attn, lin)
	}
}

func TestAllModelsDecompose(t *testing.T) {
	gs := []*graph.Graph{
		MMT(DefaultMMTConfig()),
		DLRM(DefaultDLRMConfig()),
		CANDLEUno(DefaultCANDLEUnoConfig()),
		CaseStudy(DefaultCaseStudyConfig()),
		SequentialTransformer(32),
	}
	for _, g := range gs {
		d := spgraph.New(g)
		if d.IsAtom(d.Root()) {
			t.Errorf("%s: root is an atom, expected decomposable", g.Name())
		}
		n := d.CountZones()
		if n < 4 || n > 5000 {
			t.Errorf("%s: zone count %d out of expected range", g.Name(), n)
		}
	}
}

func TestPaperMiniBatch(t *testing.T) {
	cases := []struct {
		model   string
		devices int
		want    int
	}{
		{"mmt", 4, 64}, {"mmt", 32, 512},
		{"dlrm", 8, 512}, {"dlrm", 16, 1024},
		{"candle-uno", 4, 4096}, {"candle-uno", 32, 32768},
	}
	for _, c := range cases {
		got, err := PaperMiniBatch(c.model, c.devices)
		if err != nil || got != c.want {
			t.Errorf("PaperMiniBatch(%s, %d) = %d, %v; want %d", c.model, c.devices, got, err, c.want)
		}
	}
	if _, err := PaperMiniBatch("nope", 4); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := PaperMiniBatch("mmt", 7); err == nil {
		t.Error("unknown device count accepted")
	}
}

func TestGeneralistStructure(t *testing.T) {
	g := Generalist(DefaultGeneralistConfig())
	// 1 text input + 6 layers + 1 tab input + 4 ff + 2*(input+embed)
	// + fusion + head = 18.
	if g.Len() != 18 {
		t.Fatalf("generalist ops = %d, want 18", g.Len())
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Four sources: one per modality branch.
	if got := len(g.Sources()); got != 4 {
		t.Errorf("sources = %d, want 4", got)
	}
	// Heterogeneous kinds present.
	kinds := map[graph.OpKind]int{}
	for _, op := range g.Ops() {
		kinds[op.Kind]++
	}
	if kinds[graph.OpAttention] != 6 || kinds[graph.OpLinear] != 4 || kinds[graph.OpEmbedding] != 2 {
		t.Errorf("kind mix wrong: %v", kinds)
	}
	d := spgraph.New(g)
	if d.IsAtom(d.Root()) {
		t.Error("generalist should decompose")
	}
}

// TestBuildSynthSpecs pins the synth: routing in Build: a spec string
// builds a graph whose name is the resolved canonical spec, the same
// string rebuilds a byte-identical graph (the artifact-replay
// contract), and the branches override reaches the generator.
func TestBuildSynthSpecs(t *testing.T) {
	g, mb, err := Build("synth:fanout/seed=3", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mb != 32 {
		t.Errorf("synth default mini-batch = %d, want 32", mb)
	}
	if err := spgraph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// The graph names itself with the *resolved* spec; rebuilding from
	// that name must reproduce it exactly.
	g2, _, err := Build(g.Name(), 0, 4)
	if err != nil {
		t.Fatalf("rebuilding from %q: %v", g.Name(), err)
	}
	if g.CanonicalHash() != g2.CanonicalHash() {
		t.Errorf("rebuild from resolved name changed the graph")
	}

	wide, _, err := Build("synth:fanout/seed=3", 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wide.Sources()); got != 6 {
		t.Errorf("branches override: sources = %d, want 6", got)
	}

	if _, _, err := Build("synth:bogus/seed=1", 0, 4); err == nil {
		t.Error("unknown synth family accepted")
	}
	if _, _, err := Build("synth:chain/seed=", 0, 4); err == nil {
		t.Error("malformed synth spec accepted")
	}
}

// TestTopologyDeviceBound pins that a request's device count is checked
// before any device is built: every topology name (the Summit preset, a
// named preset, a synth family, an explicit spec) refuses one device more
// than cluster.MaxDevices, where the Summit preset used to allocate
// whatever count a request named.
func TestTopologyDeviceBound(t *testing.T) {
	for _, name := range []string{"", "summit", "topo:uniform/seed=1", "topo:explicit/classes=a:16e9:1e14:9e11/levels=l:4:1e10:1e10:1e-6/assign=4xa"} {
		if _, err := Topology(name, cluster.MaxDevices+1); err == nil || !strings.Contains(err.Error(), "devices") {
			t.Errorf("Topology(%q, %d): want the device bound, got %v", name, cluster.MaxDevices+1, err)
		}
	}
	if topo, err := Topology("", 64); err != nil || topo.Len() != 64 {
		t.Errorf("Topology(\"\", 64) = %v, %v", topo, err)
	}
}
