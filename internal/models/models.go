// Package models builds the computation graphs of the DNNs the paper
// evaluates (§7, Appendix A.2): the Multi-Modal Transformer (MMT), DLRM,
// CANDLE-Uno, the synthetic two-branch Transformer of the case study
// (Figure 10), and the sequential Transformer of Appendix A.3.
//
// Operator costs (FLOPs, parameter bytes, activation bytes) are derived
// analytically from the hyperparameters stated in the paper, substituting
// for profiling real kernels. Each branch of a multi-branch model reads its
// own modality through a per-branch input operator (the partitioner handles
// multi-source graphs), and every graph has a single output operator.
package models

import (
	"fmt"
	"strings"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/synth"
)

// TransformerConfig describes one Transformer branch per Appendix A.2:
// sequence length 256, hidden size 1024, embedding size 1024, 16 attention
// heads, feed-forward hidden size 4096.
type TransformerConfig struct {
	SeqLen     int
	Hidden     int
	FFN        int
	Heads      int
	DTypeBytes float64
}

// DefaultTransformerConfig returns the paper's MMT layer hyperparameters.
func DefaultTransformerConfig() TransformerConfig {
	return TransformerConfig{SeqLen: 256, Hidden: 1024, FFN: 4096, Heads: 16, DTypeBytes: 2}
}

// layerCosts computes per-sample costs of one full Transformer layer
// (attention + feed-forward).
func (c TransformerConfig) layerCosts() (fwdFLOPs, paramBytes, actBytes, outBytes float64) {
	s, h, f := float64(c.SeqLen), float64(c.Hidden), float64(c.FFN)
	// Matmul FLOPs (2·m·n·k): QKV 6sh², scores+context 4s²h, out-proj
	// 2sh², FFN 4shf.
	fwdFLOPs = 6*s*h*h + 4*s*s*h + 2*s*h*h + 4*s*h*f
	params := 4*h*h + 2*h*f // attention + FFN weights
	paramBytes = params * c.DTypeBytes
	// Retained activations: ~10 s×h tensors plus the s×s attention maps
	// per head.
	actBytes = (10*s*h + s*s*float64(c.Heads)) * c.DTypeBytes
	outBytes = s * h * c.DTypeBytes
	return
}

// attentionCosts computes per-sample costs of the attention sub-layer alone
// (used by the case-study model, which splits layers into attention and
// linear operators).
func (c TransformerConfig) attentionCosts() (fwdFLOPs, paramBytes, actBytes, outBytes float64) {
	s, h := float64(c.SeqLen), float64(c.Hidden)
	fwdFLOPs = 6*s*h*h + 4*s*s*h + 2*s*h*h
	paramBytes = 4 * h * h * c.DTypeBytes
	actBytes = (6*s*h + s*s*float64(c.Heads)) * c.DTypeBytes
	outBytes = s * h * c.DTypeBytes
	return
}

// linearCosts computes per-sample costs of one s×h → s×f linear layer.
func (c TransformerConfig) linearCosts(in, out int) (fwdFLOPs, paramBytes, actBytes, outBytes float64) {
	s := float64(c.SeqLen)
	fwdFLOPs = 2 * s * float64(in) * float64(out)
	paramBytes = float64(in) * float64(out) * c.DTypeBytes
	actBytes = s * float64(out) * 2 * c.DTypeBytes
	outBytes = s * float64(out) * c.DTypeBytes
	return
}

// MMTConfig configures the Multi-Modal Transformer: Branches parallel
// stacks of LayersPerBranch Transformer layers, concatenated at the end
// (Appendix A.2: 4 branches × 8 layers = 32 layers total).
type MMTConfig struct {
	Branches        int
	LayersPerBranch int
	Layer           TransformerConfig
}

// DefaultMMTConfig returns the paper's end-to-end MMT: 4 branches × 8
// layers.
func DefaultMMTConfig() MMTConfig {
	return MMTConfig{Branches: 4, LayersPerBranch: 8, Layer: DefaultTransformerConfig()}
}

// MMT builds the Multi-Modal Transformer computation graph. Each branch
// reads its own modality (text, image, audio, ...) through a per-branch
// zero-cost input operator, so branches share no upstream operator and are
// genuinely computationally independent, as in the paper's Figure 2.
func MMT(cfg MMTConfig) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("mmt-%db-%dl", cfg.Branches, cfg.LayersPerBranch))
	lc := cfg.Layer
	s, h := float64(lc.SeqLen), float64(lc.Hidden)

	concat := b.AddOp(graph.Op{
		Name: "concat", Kind: graph.OpConcat,
		FwdFLOPs:        s * h * float64(cfg.Branches),
		ActivationBytes: s * h * float64(cfg.Branches) * lc.DTypeBytes,
		OutputBytes:     s * h * float64(cfg.Branches) * lc.DTypeBytes,
	})
	fl, pb, ab, ob := lc.layerCosts()
	for br := 0; br < cfg.Branches; br++ {
		prev := b.AddOp(graph.Op{
			Name: fmt.Sprintf("br%d_input", br), Kind: graph.OpInput,
			OutputBytes: s * h * lc.DTypeBytes, // this modality's tokens
		})
		for l := 0; l < cfg.LayersPerBranch; l++ {
			op := b.AddOp(graph.Op{
				Name: fmt.Sprintf("br%d_layer%d", br, l), Kind: graph.OpAttention,
				FwdFLOPs: fl, ParamBytes: pb, ActivationBytes: ab, OutputBytes: ob,
			})
			b.Connect(prev, op)
			prev = op
		}
		b.Connect(prev, concat)
	}
	// Output head: project the concatenation back to hidden.
	hf, hp, ha, ho := lc.linearCosts(lc.Hidden*cfg.Branches, lc.Hidden)
	head := b.AddOp(graph.Op{
		Name: "head", Kind: graph.OpOutput,
		FwdFLOPs: hf, ParamBytes: hp, ActivationBytes: ha, OutputBytes: ho,
	})
	b.Connect(concat, head)
	return b.MustBuild()
}

// SequentialTransformer builds the Appendix A.3 model: a single chain of
// layers with the same per-layer configuration as MMT (32 layers total, the
// same parameter count as the 4×8 MMT).
func SequentialTransformer(layers int) *graph.Graph {
	lc := DefaultTransformerConfig()
	b := graph.NewBuilder(fmt.Sprintf("seq-transformer-%dl", layers))
	s, h := float64(lc.SeqLen), float64(lc.Hidden)
	in := b.AddOp(graph.Op{Name: "input", Kind: graph.OpInput, OutputBytes: s * h * lc.DTypeBytes})
	fl, pb, ab, ob := lc.layerCosts()
	prev := in
	for l := 0; l < layers; l++ {
		op := b.AddOp(graph.Op{
			Name: fmt.Sprintf("layer%d", l), Kind: graph.OpAttention,
			FwdFLOPs: fl, ParamBytes: pb, ActivationBytes: ab, OutputBytes: ob,
		})
		b.Connect(prev, op)
		prev = op
	}
	hf, hp, ha, ho := lc.linearCosts(lc.Hidden, lc.Hidden)
	head := b.AddOp(graph.Op{Name: "head", Kind: graph.OpOutput,
		FwdFLOPs: hf, ParamBytes: hp, ActivationBytes: ha, OutputBytes: ho})
	b.Connect(prev, head)
	return b.MustBuild()
}

// DLRMConfig configures the recommendation model per Appendix A.2: seven
// dense-feature branches of four feed-forward layers (hidden 4096), seven
// sparse-feature branches (embedding tables of 1M entries × 64, bags of 100
// lookups), an interaction, and a top MLP of four layers.
type DLRMConfig struct {
	DenseBranches  int
	SparseBranches int
	DenseLayers    int
	Hidden         int
	EmbedDim       int
	EmbedEntries   int
	BagSize        int
	TopLayers      int
	DTypeBytes     float64
}

// DefaultDLRMConfig returns the paper's DLRM.
func DefaultDLRMConfig() DLRMConfig {
	return DLRMConfig{
		DenseBranches:  7,
		SparseBranches: 7,
		DenseLayers:    4,
		Hidden:         4096,
		EmbedDim:       64,
		EmbedEntries:   1_000_000,
		BagSize:        100,
		TopLayers:      4,
		DTypeBytes:     4,
	}
}

// DLRM builds the recommendation-model computation graph. Each dense
// branch reads its own dense-feature vector and each sparse branch its own
// index list, so the fourteen branches are computationally independent.
func DLRM(cfg DLRMConfig) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("dlrm-%dd-%ds", cfg.DenseBranches, cfg.SparseBranches))
	h := float64(cfg.Hidden)
	dt := cfg.DTypeBytes

	ffFLOPs := 2 * h * h
	ffParams := h * h * dt
	ffAct := 2 * h * dt
	ffOut := h * dt

	interact := b.AddOp(graph.Op{
		Name: "interaction", Kind: graph.OpInteraction,
		FwdFLOPs:        h * float64(cfg.DenseBranches+cfg.SparseBranches),
		ActivationBytes: (h*float64(cfg.DenseBranches) + float64(cfg.BagSize*cfg.EmbedDim*cfg.SparseBranches)) * dt,
		OutputBytes:     h * dt,
	})

	for br := 0; br < cfg.DenseBranches; br++ {
		prev := b.AddOp(graph.Op{
			Name: fmt.Sprintf("dense%d_input", br), Kind: graph.OpInput,
			OutputBytes: h * dt,
		})
		for l := 0; l < cfg.DenseLayers; l++ {
			op := b.AddOp(graph.Op{
				Name: fmt.Sprintf("dense%d_ff%d", br, l), Kind: graph.OpLinear,
				FwdFLOPs: ffFLOPs, ParamBytes: ffParams, ActivationBytes: ffAct, OutputBytes: ffOut,
			})
			b.Connect(prev, op)
			prev = op
		}
		b.Connect(prev, interact)
	}
	embedParams := float64(cfg.EmbedEntries*cfg.EmbedDim) * dt
	embedOut := float64(cfg.BagSize*cfg.EmbedDim) * dt // bag concatenated
	for br := 0; br < cfg.SparseBranches; br++ {
		in := b.AddOp(graph.Op{
			Name: fmt.Sprintf("sparse%d_input", br), Kind: graph.OpInput,
			OutputBytes: float64(cfg.BagSize) * 8, // int64 indices
		})
		op := b.AddOp(graph.Op{
			Name: fmt.Sprintf("sparse%d_embed", br), Kind: graph.OpEmbedding,
			FwdFLOPs:        float64(cfg.BagSize * cfg.EmbedDim), // gather + reduce
			ParamBytes:      embedParams,
			ActivationBytes: embedOut,
			OutputBytes:     embedOut,
		})
		b.Connect(in, op)
		b.Connect(op, interact)
	}
	prev := interact
	for l := 0; l < cfg.TopLayers; l++ {
		op := b.AddOp(graph.Op{
			Name: fmt.Sprintf("top_ff%d", l), Kind: graph.OpLinear,
			FwdFLOPs: ffFLOPs, ParamBytes: ffParams, ActivationBytes: ffAct, OutputBytes: ffOut,
		})
		b.Connect(prev, op)
		prev = op
	}
	out := b.AddOp(graph.Op{Name: "output", Kind: graph.OpOutput,
		FwdFLOPs: 2 * h, ParamBytes: h * dt, ActivationBytes: dt, OutputBytes: dt})
	b.Connect(prev, out)
	return b.MustBuild()
}

// CANDLEUnoConfig configures the precision-medicine model per Appendix A.2:
// seven parallel branches of four feed-forward layers, hidden size 4096.
// Branches is configurable for the Figure 7 branch sweep.
type CANDLEUnoConfig struct {
	Branches   int
	Layers     int
	Hidden     int
	DTypeBytes float64
}

// DefaultCANDLEUnoConfig returns the paper's CANDLE-Uno.
func DefaultCANDLEUnoConfig() CANDLEUnoConfig {
	return CANDLEUnoConfig{Branches: 7, Layers: 4, Hidden: 4096, DTypeBytes: 4}
}

// CANDLEUno builds the CANDLE-Uno computation graph. Each branch reads a
// different feature family of the precision-medicine dataset through its
// own input operator.
func CANDLEUno(cfg CANDLEUnoConfig) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("candle-uno-%db", cfg.Branches))
	h := float64(cfg.Hidden)
	dt := cfg.DTypeBytes
	concat := b.AddOp(graph.Op{
		Name: "concat", Kind: graph.OpConcat,
		FwdFLOPs:        h * float64(cfg.Branches),
		ActivationBytes: h * float64(cfg.Branches) * dt,
		OutputBytes:     h * float64(cfg.Branches) * dt,
	})
	ffFLOPs := 2 * h * h
	ffParams := h * h * dt
	ffAct := 2 * h * dt
	ffOut := h * dt
	for br := 0; br < cfg.Branches; br++ {
		prev := b.AddOp(graph.Op{
			Name: fmt.Sprintf("br%d_input", br), Kind: graph.OpInput,
			OutputBytes: h * dt,
		})
		for l := 0; l < cfg.Layers; l++ {
			op := b.AddOp(graph.Op{
				Name: fmt.Sprintf("br%d_ff%d", br, l), Kind: graph.OpLinear,
				FwdFLOPs: ffFLOPs, ParamBytes: ffParams, ActivationBytes: ffAct, OutputBytes: ffOut,
			})
			b.Connect(prev, op)
			prev = op
		}
		b.Connect(prev, concat)
	}
	out := b.AddOp(graph.Op{Name: "output", Kind: graph.OpOutput,
		FwdFLOPs:   2 * h * float64(cfg.Branches) * h,
		ParamBytes: h * float64(cfg.Branches) * h * dt, ActivationBytes: 2 * h * dt, OutputBytes: h * dt})
	b.Connect(concat, out)
	return b.MustBuild()
}

// CaseStudyConfig configures the synthetic two-branch Transformer of
// Figure 10: each branch repeats (multi-head attention, linear, linear)
// four times; a concatenation merges the branches.
type CaseStudyConfig struct {
	Branches int
	Repeats  int
	Layer    TransformerConfig
}

// DefaultCaseStudyConfig returns the Figure 10 model. The layer dimensions
// are scaled up relative to MMT (hidden 8192, FFN 32768, sequence 512) so
// that, as on the paper's testbed, the system "operates close to the memory
// limits" (§7.5): the ~51 GB of weight state cannot be replicated across
// wide data-parallel groups, pushing both planners to the paper's
// one-device-per-stage partition, where SPP's doubled pipeline depth caps
// its micro-batch size below GraphPipe's.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		Branches: 2,
		Repeats:  4,
		Layer:    TransformerConfig{SeqLen: 512, Hidden: 8192, FFN: 32768, Heads: 64, DTypeBytes: 2},
	}
}

// CaseStudy builds the Figure 10 model at operator granularity (attention
// and linear layers are separate operators so a stage can hold exactly one
// attention and two linear layers, as in §7.5).
func CaseStudy(cfg CaseStudyConfig) *graph.Graph {
	b := graph.NewBuilder("case-study")
	lc := cfg.Layer
	s, h := float64(lc.SeqLen), float64(lc.Hidden)
	concat := b.AddOp(graph.Op{
		Name: "concat", Kind: graph.OpConcat,
		FwdFLOPs:        s * h * float64(cfg.Branches),
		ActivationBytes: s * h * float64(cfg.Branches) * lc.DTypeBytes,
		OutputBytes:     s * h * float64(cfg.Branches) * lc.DTypeBytes,
	})
	af, ap, aa, ao := lc.attentionCosts()
	l1f, l1p, l1a, l1o := lc.linearCosts(lc.Hidden, lc.FFN)
	l2f, l2p, l2a, l2o := lc.linearCosts(lc.FFN, lc.Hidden)
	for br := 0; br < cfg.Branches; br++ {
		prev := b.AddOp(graph.Op{
			Name: fmt.Sprintf("br%d_input", br), Kind: graph.OpInput,
			OutputBytes: s * h * lc.DTypeBytes,
		})
		for r := 0; r < cfg.Repeats; r++ {
			att := b.AddOp(graph.Op{
				Name: fmt.Sprintf("br%d_r%d_attn", br, r), Kind: graph.OpAttention,
				FwdFLOPs: af, ParamBytes: ap, ActivationBytes: aa, OutputBytes: ao,
			})
			lin1 := b.AddOp(graph.Op{
				Name: fmt.Sprintf("br%d_r%d_lin1", br, r), Kind: graph.OpLinear,
				FwdFLOPs: l1f, ParamBytes: l1p, ActivationBytes: l1a, OutputBytes: l1o,
			})
			lin2 := b.AddOp(graph.Op{
				Name: fmt.Sprintf("br%d_r%d_lin2", br, r), Kind: graph.OpLinear,
				FwdFLOPs: l2f, ParamBytes: l2p, ActivationBytes: l2a, OutputBytes: l2o,
			})
			b.Chain(prev, att, lin1, lin2)
			prev = lin2
		}
		b.Connect(prev, concat)
	}
	return b.MustBuild()
}

// Names lists the model names Build accepts, in a stable order.
func Names() []string {
	return []string{"mmt", "dlrm", "candle-uno", "case-study", "generalist", "sequential"}
}

// Build constructs an evaluation model by name along with its default
// mini-batch size for the device count (the paper's pairing where one
// exists, a proportional fallback otherwise). branches > 0 overrides the
// model's branch count where the model has one. It is the single
// name→graph mapping shared by the CLI, the examples, the planning
// service, and artifact re-evaluation, so a persisted strategy.Artifact
// can be rebuilt into its evaluation context from its metadata alone.
//
// Names with the "synth:" prefix are synthetic-model specs
// (synth.Parse): seed-driven generated graphs that flow through every
// consumer of this function exactly like the paper models.
func Build(name string, branches, devices int) (*graph.Graph, int, error) {
	if synth.IsSpec(name) {
		spec, err := synth.Parse(name)
		if err != nil {
			return nil, 0, fmt.Errorf("models: %v", err)
		}
		if branches > 0 {
			spec.Branches = branches
		}
		g, _, err := synth.Generate(spec)
		if err != nil {
			return nil, 0, fmt.Errorf("models: %v", err)
		}
		return g, synth.DefaultMiniBatch(devices), nil
	}
	switch name {
	case "mmt":
		cfg := DefaultMMTConfig()
		if branches > 0 {
			cfg.Branches = branches
		}
		mb, err := PaperMiniBatch("mmt", devices)
		if err != nil {
			mb = 32 * devices
		}
		return MMT(cfg), mb, nil
	case "dlrm":
		mb, err := PaperMiniBatch("dlrm", devices)
		if err != nil {
			mb = 64 * devices
		}
		return DLRM(DefaultDLRMConfig()), mb, nil
	case "candle-uno":
		cfg := DefaultCANDLEUnoConfig()
		if branches > 0 {
			cfg.Branches = branches
		}
		mb, err := PaperMiniBatch("candle-uno", devices)
		if err != nil {
			mb = 1024 * devices
		}
		return CANDLEUno(cfg), mb, nil
	case "case-study":
		return CaseStudy(DefaultCaseStudyConfig()), 64, nil
	case "generalist":
		return Generalist(DefaultGeneralistConfig()), 32 * devices, nil
	case "sequential":
		return SequentialTransformer(32), 16 * devices, nil
	default:
		return nil, 0, fmt.Errorf("models: unknown model %q (known: %s, or a %sfamily/seed=N spec)",
			name, strings.Join(Names(), ", "), synth.Prefix)
	}
}

// PaperMiniBatch returns the mini-batch size the paper pairs with each
// device count for its end-to-end evaluation (Appendix A.2), chosen so the
// system operates close to the memory limit.
func PaperMiniBatch(model string, devices int) (int, error) {
	table := map[string]map[int]int{
		"mmt":        {4: 64, 8: 128, 16: 256, 32: 512},
		"dlrm":       {4: 256, 8: 512, 16: 1024, 32: 2048},
		"candle-uno": {4: 4096, 8: 8192, 16: 16384, 32: 32768},
	}
	m, ok := table[model]
	if !ok {
		return 0, fmt.Errorf("models: unknown model %q", model)
	}
	b, ok := m[devices]
	if !ok {
		return 0, fmt.Errorf("models: no paper mini-batch for %q at %d devices", model, devices)
	}
	return b, nil
}

// GeneralistConfig configures a heterogeneous mixed-modal model in the
// style of the generalist systems the paper's introduction motivates
// (GPT-4o, Chameleon, Gato): branches of *different* operator types — a
// Transformer stack for text, an MLP stack for tabular features, and
// embedding towers for categorical data — merged by one fusion operator.
// Heterogeneous branches are the scenario where per-stage micro-batch
// sizes pay off (§6): each modality has a different compute-efficiency
// sweet spot.
type GeneralistConfig struct {
	TextLayers    int // Transformer layers on the text branch
	TabularLayers int // feed-forward layers on the tabular branch
	EmbedTowers   int // categorical embedding towers
	Layer         TransformerConfig
	Hidden        int
	EmbedDim      int
	EmbedEntries  int
	DTypeBytes    float64
}

// DefaultGeneralistConfig returns a moderate generalist model.
func DefaultGeneralistConfig() GeneralistConfig {
	return GeneralistConfig{
		TextLayers:    6,
		TabularLayers: 4,
		EmbedTowers:   2,
		Layer:         DefaultTransformerConfig(),
		Hidden:        4096,
		EmbedDim:      128,
		EmbedEntries:  500_000,
		DTypeBytes:    2,
	}
}

// Generalist builds the mixed-modal computation graph.
func Generalist(cfg GeneralistConfig) *graph.Graph {
	b := graph.NewBuilder("generalist")
	lc := cfg.Layer
	s, h := float64(lc.SeqLen), float64(lc.Hidden)
	dt := cfg.DTypeBytes

	fusion := b.AddOp(graph.Op{
		Name: "fusion", Kind: graph.OpConcat,
		FwdFLOPs:        s * h * 3,
		ActivationBytes: s * h * 3 * dt,
		OutputBytes:     s * h * dt,
	})

	// Text branch: Transformer layers (compute-bound, efficient at small
	// micro-batches).
	fl, pb, ab, ob := lc.layerCosts()
	prev := b.AddOp(graph.Op{Name: "text_input", Kind: graph.OpInput, OutputBytes: s * h * dt})
	for l := 0; l < cfg.TextLayers; l++ {
		op := b.AddOp(graph.Op{
			Name: fmt.Sprintf("text_layer%d", l), Kind: graph.OpAttention,
			FwdFLOPs: fl, ParamBytes: pb, ActivationBytes: ab, OutputBytes: ob,
		})
		b.Connect(prev, op)
		prev = op
	}
	b.Connect(prev, fusion)

	// Tabular branch: plain MLP (wants larger micro-batches).
	hh := float64(cfg.Hidden)
	prev = b.AddOp(graph.Op{Name: "tab_input", Kind: graph.OpInput, OutputBytes: hh * dt})
	for l := 0; l < cfg.TabularLayers; l++ {
		op := b.AddOp(graph.Op{
			Name: fmt.Sprintf("tab_ff%d", l), Kind: graph.OpLinear,
			FwdFLOPs: 2 * hh * hh, ParamBytes: hh * hh * dt,
			ActivationBytes: 2 * hh * dt, OutputBytes: hh * dt,
		})
		b.Connect(prev, op)
		prev = op
	}
	b.Connect(prev, fusion)

	// Categorical towers: memory-bound embedding lookups (want the
	// largest micro-batches of all).
	for tw := 0; tw < cfg.EmbedTowers; tw++ {
		in := b.AddOp(graph.Op{
			Name: fmt.Sprintf("cat%d_input", tw), Kind: graph.OpInput,
			OutputBytes: 8, // one int64 index
		})
		emb := b.AddOp(graph.Op{
			Name: fmt.Sprintf("cat%d_embed", tw), Kind: graph.OpEmbedding,
			FwdFLOPs:        float64(cfg.EmbedDim),
			ParamBytes:      float64(cfg.EmbedEntries*cfg.EmbedDim) * dt,
			ActivationBytes: float64(cfg.EmbedDim) * dt,
			OutputBytes:     float64(cfg.EmbedDim) * dt,
		})
		b.Connect(in, emb)
		b.Connect(emb, fusion)
	}

	head := b.AddOp(graph.Op{
		Name: "head", Kind: graph.OpOutput,
		FwdFLOPs: 2 * s * h * h, ParamBytes: h * h * dt,
		ActivationBytes: s * h * dt, OutputBytes: s * h * dt,
	})
	b.Connect(fusion, head)
	return b.MustBuild()
}

// Topology resolves a topology name at a device count — the cluster-side
// twin of Build. The empty name (and "summit") selects the paper's
// Summit preset; "topo:explicit/..." strings spell a topology out in
// full; any other "topo:" name is a seeded synth topology family
// (synth.BuildTopology). Explicit specs must describe exactly the
// requested device count: a request routed to a cluster of a different
// size is a caller bug, not something to silently truncate. The count is
// checked against cluster.MaxDevices before any device is built.
func Topology(name string, devices int) (*cluster.Topology, error) {
	if devices < 1 || devices > cluster.MaxDevices {
		return nil, fmt.Errorf("models: topology %q needs 1..%d devices, got %d", name, cluster.MaxDevices, devices)
	}
	switch {
	case name == "":
		return cluster.NewSummitTopology(devices), nil
	case cluster.IsExplicitSpec(name):
		t, err := cluster.ParseTopology(name)
		if err != nil {
			return nil, fmt.Errorf("models: %v", err)
		}
		if t.Len() != devices {
			return nil, fmt.Errorf("models: topology %q describes %d devices, request wants %d",
				name, t.Len(), devices)
		}
		return t, nil
	case cluster.IsSpecName(name):
		t, err := synth.BuildTopology(name, devices)
		if err != nil {
			return nil, fmt.Errorf("models: %v", err)
		}
		return t, nil
	default:
		t, err := cluster.Preset(name, devices)
		if err != nil {
			return nil, fmt.Errorf("models: %v", err)
		}
		return t, nil
	}
}
