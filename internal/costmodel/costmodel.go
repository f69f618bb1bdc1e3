// Package costmodel estimates execution times and memory footprints of
// pipeline stages. It substitutes for the paper's operator profiler: the
// paper measures per-operator execution times on V100 GPUs and extrapolates
// communication by affine functions (§5, base case); we compute both from an
// analytic roofline model so the reproduction is self-contained and
// deterministic.
//
// The model captures the one hardware behaviour GraphPipe's evaluation
// leans on (§2, §7.3, §7.5): compute efficiency increases with micro-batch
// size. Each operator kind has a saturation scale; per-device time for a
// micro-batch of size b is
//
//	time(b) = flops(b) / (peak · eff(b)) + fixed overhead,
//	eff(b)  = b / (b + halfSat)        (monotone, →1 as b grows),
//
// floored by the memory-bandwidth roofline for memory-bound operators such
// as embedding lookups.
package costmodel

import (
	"math"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
)

// Params configures the cost model. The zero value is not usable; call
// DefaultParams.
type Params struct {
	// HalfSat is the per-op-kind micro-batch size (samples per device) at
	// which an operator reaches 50% of peak efficiency. Larger values mean
	// the op needs bigger micro-batches to keep the device busy.
	HalfSat map[graph.OpKind]float64

	// KernelOverhead is the fixed per-operator launch overhead in seconds.
	KernelOverhead float64

	// WeightStateMultiplier scales parameter bytes to account for
	// gradients and optimizer state alongside the weights (Adam keeps two
	// moments: weights + grads + m + v = 4x).
	WeightStateMultiplier float64

	// BackwardFLOPFactor is used when an operator does not specify
	// BwdFLOPs: backward ≈ 2x forward for trainable ops.
	BackwardFLOPFactor float64
}

// DefaultParams returns the parameters used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		HalfSat: map[graph.OpKind]float64{
			graph.OpInput:       1,
			graph.OpEmbedding:   64, // memory-bound: needs many lookups in flight
			graph.OpLinear:      4,
			graph.OpAttention:   2,
			graph.OpLayerNorm:   8,
			graph.OpConcat:      8,
			graph.OpInteraction: 8,
			graph.OpOutput:      1,
			graph.OpElementwise: 8,
		},
		KernelOverhead:        8e-6,
		WeightStateMultiplier: 4,
		BackwardFLOPFactor:    2,
	}
}

// Model is the cost-model contract shared by the planners and both
// evaluation backends: per-operator pass times, aggregate stage costs, the
// TPS objective (Equation 1), and the memory feasibility checks
// (Equation 2). Implementations must be safe for concurrent use — the
// parallel planner and the experiment grid both query one model from many
// goroutines. Analytic is the roofline implementation. Planners and
// evaluators cost a stage with one Stage call and derive TPS and memory
// from the returned StageCosts; each planner memoizes those per search.
type Model interface {
	// Topology returns the device topology the model was built over.
	Topology() *cluster.Topology
	// OpForwardTime returns the forward-pass time of op for perDeviceBatch
	// samples on a single device dev.
	OpForwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64
	// OpBackwardTime returns the backward-pass time of op for
	// perDeviceBatch samples on a single device dev.
	OpBackwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64
	// Stage computes the costs of a candidate stage over computation graph
	// g.
	Stage(g *graph.Graph, cfg StageConfig) StageCosts
	// TPS returns the steady-state time the stage adds per training sample
	// (Equation 1).
	TPS(g *graph.Graph, cfg StageConfig, miniBatch int) float64
	// StageMemory returns the per-device memory of the stage with
	// inFlightSamples samples' activations resident (Equation 2).
	StageMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) float64
	// FitsMemory reports whether the stage satisfies the device memory
	// budget.
	FitsMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) bool
	// MaxTPS returns a safe upper bound for the bottleneck TPS (the MAXTPS
	// of Algorithm 1).
	MaxTPS(g *graph.Graph, miniBatch int) float64
}

// Analytic is the roofline cost model: deterministic, closed-form stage
// costs against a device topology.
type Analytic struct {
	params Params
	topo   *cluster.Topology
}

// New returns an Analytic model with the given parameters over the
// topology.
func New(params Params, topo *cluster.Topology) *Analytic {
	return &Analytic{params: params, topo: topo}
}

// NewDefault returns the Analytic roofline with DefaultParams. It holds
// no state beyond its parameters, so every caller can build its own.
func NewDefault(topo *cluster.Topology) *Analytic {
	return New(DefaultParams(), topo)
}

// Topology returns the device topology the model was built over.
func (m *Analytic) Topology() *cluster.Topology { return m.topo }

// Params returns the model parameters.
func (m *Analytic) Params() Params { return m.params }

// efficiency returns the fraction of peak FLOPS an operator achieves at
// perDeviceBatch samples.
func (m *Analytic) efficiency(kind graph.OpKind, perDeviceBatch float64) float64 {
	half, ok := m.params.HalfSat[kind]
	if !ok {
		half = 4
	}
	if perDeviceBatch <= 0 {
		return 1
	}
	return perDeviceBatch / (perDeviceBatch + half)
}

// OpForwardTime returns the forward-pass time of op for perDeviceBatch
// samples on a single device dev.
func (m *Analytic) OpForwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64 {
	return m.opTime(op, op.FwdFLOPs, perDeviceBatch, dev)
}

// OpBackwardTime returns the backward-pass time of op for perDeviceBatch
// samples on a single device dev.
func (m *Analytic) OpBackwardTime(op graph.Op, perDeviceBatch float64, dev cluster.Device) float64 {
	flops := op.BwdFLOPs
	if flops == 0 && op.FwdFLOPs > 0 {
		flops = op.FwdFLOPs * m.params.BackwardFLOPFactor
	}
	return m.opTime(op, flops, perDeviceBatch, dev)
}

func (m *Analytic) opTime(op graph.Op, flopsPerSample, perDeviceBatch float64, dev cluster.Device) float64 {
	if perDeviceBatch <= 0 {
		return 0
	}
	eff := m.efficiency(op.Kind, perDeviceBatch)
	compute := flopsPerSample * perDeviceBatch / (dev.PeakFLOPS * eff)
	// Memory-bandwidth roofline: moving activations (and, for embeddings,
	// gathering rows) cannot go faster than DRAM.
	bytesMoved := (op.ActivationBytes + op.OutputBytes) * perDeviceBatch
	membound := bytesMoved / dev.MemBandwidth
	return math.Max(compute, membound) + m.params.KernelOverhead
}

// StageCosts describes the planner-visible cost of one candidate pipeline
// stage configuration.
type StageCosts struct {
	// ForwardTime and BackwardTime are the per-micro-batch pass times on
	// each data-parallel replica.
	ForwardTime  float64
	BackwardTime float64
	// CommInTime is the time to receive the stage's input activations for
	// one micro-batch across the stage boundary.
	CommInTime float64
	// CommBackTime is the time to send the matching gradients back across
	// the same boundary. On symmetric links it equals CommInTime; on
	// hierarchical topologies with asymmetric up/down rates the two differ,
	// so the steady-state comm charge is CommInTime + CommBackTime.
	CommBackTime float64
	// AllreducePerIter is the per-iteration gradient synchronization time
	// across the stage's data-parallel replicas.
	AllreducePerIter float64
	// WeightBytes is the per-device memory for parameters + optimizer
	// state (replicated across data-parallel devices).
	WeightBytes float64
	// ActivationBytesPerSample is the per-device activation memory
	// retained per in-flight sample.
	ActivationBytesPerSample float64
}

// TPS returns the Time-Per-Sample of a stage with these costs at
// micro-batch size microBatch: the steady-state time the stage adds per
// training sample, the quantity minimized for the bottleneck stage in
// Equation 1. In steady-state 1F1B, activation/gradient transfers overlap
// with the compute of other micro-batches, so the stage is paced by
// whichever is larger; the per-iteration allreduce is spread over the
// miniBatch samples of an iteration.
func (c StageCosts) TPS(microBatch, miniBatch int) float64 {
	perMicro := c.ForwardTime + c.BackwardTime
	if comm := c.CommInTime + c.CommBackTime; comm > perMicro {
		perMicro = comm
	}
	tps := perMicro / float64(microBatch)
	if miniBatch > 0 {
		tps += c.AllreducePerIter / float64(miniBatch)
	}
	return tps
}

// Memory returns the per-device memory of a stage with these costs when it
// keeps inFlightSamples samples' activations resident (Equation 2
// left-hand side).
func (c StageCosts) Memory(inFlightSamples int) float64 {
	return c.WeightBytes + c.ActivationBytesPerSample*float64(inFlightSamples)
}

// IterationEstimate is the synchronous-1F1B iteration time every planner
// in this repository ranks its final candidates by: the bottleneck stage's
// time-per-sample paces the miniBatch steady-state samples and the
// warm-up/cool-down bubbles, which grow with the source stage's in-flight
// window beyond its own micro-batch (≈ pipeline depth × micro-batch size).
// Selecting by one estimate makes the planner comparison isolate their
// partition spaces.
func IterationEstimate(bottleneckTPS float64, miniBatch, srcInFlight, srcMicroBatch int) float64 {
	return bottleneckTPS * float64(miniBatch+srcInFlight-srcMicroBatch)
}

// StageConfig identifies the stage whose cost is being queried.
type StageConfig struct {
	Ops        graph.NodeSet // operators assigned to the stage
	MicroBatch int           // micro-batch size b_i in samples
	DataPar    int           // number of data-parallel devices |D_i|
	// InterNode indicates the stage's boundary transfers cross node
	// boundaries. The baseline planners, which do not cost placement, pass
	// a conservative estimate.
	InterNode bool
	// InterNodeAllreduce indicates the stage's data-parallel replicas span
	// nodes (the contiguous allocator keeps ≤4-device stages within one
	// 4-GPU node, so planners treat only larger stages as spanning).
	InterNodeAllreduce bool
	// Place is the contiguous device block the stage lands on. When set
	// (Count > 0) the model costs the stage against the actual devices and
	// link levels of the block — per-op times paced by the slowest device
	// class in the block, boundary transfers at the block's in-link level
	// with direction-dependent rates — and InterNode/InterNodeAllreduce are
	// ignored. When zero the model falls back to the placement-oblivious
	// estimates above (device 0 everywhere, two-tier bandwidth heuristics).
	Place cluster.Block
}

// blockDevices returns one representative device per distinct device class
// occurring in the stage's placement block, or the placement-oblivious
// device 0 when no block is set. A stage's data-parallel replicas advance in
// lockstep, so per-op times are paced by the slowest class present.
func (m *Analytic) blockDevices(cfg StageConfig) []cluster.Device {
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

// Stage computes the costs of a stage over computation graph g.
func (m *Analytic) Stage(g *graph.Graph, cfg StageConfig) StageCosts {
	if cfg.DataPar < 1 {
		cfg.DataPar = 1
	}
	devs := m.blockDevices(cfg)
	perDev := float64(cfg.MicroBatch) / float64(cfg.DataPar)

	var out StageCosts
	for _, id := range cfg.Ops.IDs() {
		op := g.Op(id)
		var fwd, bwd float64
		for _, dev := range devs {
			if t := m.OpForwardTime(op, perDev, dev); t > fwd {
				fwd = t
			}
			if t := m.OpBackwardTime(op, perDev, dev); t > bwd {
				bwd = t
			}
		}
		out.ForwardTime += fwd
		out.BackwardTime += bwd
		out.WeightBytes += op.ParamBytes * m.params.WeightStateMultiplier
		out.ActivationBytesPerSample += op.ActivationBytes / float64(cfg.DataPar)
	}

	// Activations arrive over one point-to-point link per producing stage;
	// transfers from different producers proceed in parallel, so the stage
	// boundary is charged the largest single stream rather than the sum.
	inBytes := m.maxInEdgeBytes(g, cfg.Ops) * float64(cfg.MicroBatch)
	gradBytes := 0.0
	if cfg.DataPar > 1 {
		for _, id := range cfg.Ops.IDs() {
			gradBytes += g.Op(id).ParamBytes
		}
	}
	if cfg.Place.Count > 0 {
		// Placement-aware: the block's in-link level sets the boundary
		// rates, with activations flowing down the hierarchy and gradients
		// back up at possibly different speeds.
		lvl := m.topo.InLinkLevel(cfg.Place.Start)
		if inBytes > 0 {
			out.CommInTime = inBytes/m.topo.LevelDown(lvl) + m.topo.LevelLatency(lvl)
			out.CommBackTime = inBytes/m.topo.LevelUp(lvl) + m.topo.LevelLatency(lvl)
		}
		if cfg.DataPar > 1 {
			// Ring allreduce traffic crosses every internal link of the
			// block in both directions; the widest level's slower direction
			// bounds the rate.
			wide := m.topo.LinkLevel(
				cluster.DeviceID(cfg.Place.Start),
				cluster.DeviceID(cfg.Place.Start+cfg.Place.Count-1))
			arBW := math.Min(m.topo.LevelDown(wide), m.topo.LevelUp(wide))
			d := float64(cfg.DataPar)
			out.AllreducePerIter = 2 * (d - 1) / d * gradBytes / arBW
		}
		return out
	}

	bw := m.topo.IntraNodeBandwidth
	if cfg.InterNode {
		bw = m.topo.InterNodeBandwidth
	}
	if inBytes > 0 {
		out.CommInTime = inBytes/bw + m.topo.LinkLatency
		// Symmetric links: gradients return at the activation rate.
		out.CommBackTime = out.CommInTime
	}
	if cfg.DataPar > 1 {
		arBW := m.topo.IntraNodeBandwidth
		if cfg.InterNodeAllreduce {
			arBW = m.topo.InterNodeBandwidth
		}
		d := float64(cfg.DataPar)
		out.AllreducePerIter = 2 * (d - 1) / d * gradBytes / arBW
	}
	return out
}

// maxInEdgeBytes returns the largest per-sample activation stream entering
// the op set: the maximum OutputBytes over producers outside the set with an
// edge into it.
func (m *Analytic) maxInEdgeBytes(g *graph.Graph, set graph.NodeSet) float64 {
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

// TPS returns the Time-Per-Sample of the stage (StageCosts.TPS).
func (m *Analytic) TPS(g *graph.Graph, cfg StageConfig, miniBatch int) float64 {
	return m.Stage(g, cfg).TPS(cfg.MicroBatch, miniBatch)
}

// StageMemory returns the per-device memory of the stage when it keeps
// inFlightSamples samples' activations resident (StageCosts.Memory).
func (m *Analytic) StageMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) float64 {
	return m.Stage(g, cfg).Memory(inFlightSamples)
}

// FitsMemory reports whether the stage satisfies the device memory budget
// with the given number of in-flight samples: the smallest memory of any
// device in the stage's block, or of the whole cluster when the placement
// is not yet known.
func (m *Analytic) FitsMemory(g *graph.Graph, cfg StageConfig, inFlightSamples int) bool {
	budget := m.topo.MinMemory()
	if cfg.Place.Count > 0 {
		budget = m.topo.BlockMinMemory(cfg.Place)
	}
	return m.StageMemory(g, cfg, inFlightSamples) <= budget
}

// MaxTPS returns a safe upper bound for the bottleneck TPS (the MAXTPS of
// Algorithm 1): the whole model as a single stage on one device with
// micro-batch 1, maximized over device classes so the bound covers every
// placement on a heterogeneous cluster. The whole graph has no external
// producer edges, so boundary rates do not enter.
func (m *Analytic) MaxTPS(g *graph.Graph, miniBatch int) float64 {
	var max float64
	seen := make(map[int]bool)
	for i := 0; i < m.topo.Len(); i++ {
		c := m.topo.ClassOf(cluster.DeviceID(i))
		if seen[c] {
			continue
		}
		seen[c] = true
		cfg := StageConfig{
			Ops: g.AllNodes(), MicroBatch: 1, DataPar: 1,
			Place: cluster.Block{Start: i, Count: 1},
		}
		if tps := m.Stage(g, cfg).TPS(1, miniBatch) * 2; tps > max {
			max = tps
		}
	}
	return max
}
