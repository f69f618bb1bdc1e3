// Package cluster models the device topology graph D = (V_D, E_D) from §3:
// accelerator devices with memory budgets connected by communication links
// with bandwidths. Topologies may be heterogeneous (multiple device
// classes) and hierarchical (multiple bandwidth tiers with asymmetric
// per-direction rates); the default "summit" preset mirrors the paper's
// testbed — nodes with 4 NVLink-connected V100 GPUs per node and 100 Gb/s
// InfiniBand between nodes — so that planner decisions (e.g. keeping
// data-parallel replicas of a stage within a node) face the same bandwidth
// cliff the paper's hardware imposes.
package cluster

import (
	"fmt"
	"sort"
)

// DeviceID identifies a device within a Topology. IDs are dense from zero.
type DeviceID int

// Device is a single accelerator.
type Device struct {
	ID DeviceID
	// Node is the index of the innermost interconnect group (the host
	// machine on two-tier topologies) the device is attached to.
	Node int
	// MemoryBytes is the device memory budget M_v.
	MemoryBytes float64
	// PeakFLOPS is the device's peak throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the device's DRAM bandwidth in bytes/s, used by the
	// roofline cost model for memory-bound operators.
	MemBandwidth float64
}

// Block is a contiguous run of devices [Start, Start+Count). The planner
// places every stage on a block, so blocks are how placement-aware costs
// name "where a stage lands".
type Block struct {
	Start, Count int
}

// Topology is the device graph. Devices are ordered along the pipeline:
// lower ids are upstream. Link bandwidths and latencies come from the
// level hierarchy every topology carries (see Level).
type Topology struct {
	devices []Device

	// levels is the interconnect hierarchy, innermost first.
	levels []Level
	// classOf[i] is the index into classes of device i's interned class.
	classOf []int
	classes []DeviceClass
}

// NewSummitTopology builds the "summit" preset at n devices: V100-class
// devices grouped four per node, matching the paper's evaluation platform
// (§7). See SummitSpec for the constants.
func NewSummitTopology(n int) *Topology {
	if n < 1 {
		return &Topology{levels: SummitSpec(0).Levels}
	}
	t, err := SummitSpec(n).Build()
	if err != nil {
		panic(fmt.Sprintf("cluster: summit preset invalid: %v", err)) // unreachable
	}
	return t
}

// NewUniformTopology builds n identical devices on one symmetric link
// level with the given memory budget and bandwidth; tests use it to
// create controlled memory pressure. Compute capabilities and latency are
// borrowed from the summit preset. It panics on values Spec.Validate
// rejects (n < 1, a non-positive memory budget or bandwidth).
func NewUniformTopology(n int, memoryBytes, bandwidth float64) *Topology {
	t, err := Spec{
		Classes: []DeviceClass{{Name: "uniform", MemoryBytes: memoryBytes,
			PeakFLOPS: summitPeakFLOPS, MemBandwidth: summitMemBandwidth}},
		Levels: []Level{{Name: "link", Width: n,
			DownBandwidth: bandwidth, UpBandwidth: bandwidth, Latency: summitLatency}},
		Assign: make([]int, n),
	}.Build()
	if err != nil {
		panic(fmt.Sprintf("cluster: uniform topology: %v", err))
	}
	return t
}

// classKey identifies a device class by capabilities alone, so interning
// is independent of what a spec author named the class.
type classKey struct{ mem, flops, membw float64 }

// internClasses computes the interned device-class table from the device
// list. Every constructor calls it; devices are immutable afterwards.
func (t *Topology) internClasses() {
	t.classOf = make([]int, len(t.devices))
	t.classes = nil
	seen := make(map[classKey]int)
	for i, d := range t.devices {
		k := classKey{d.MemoryBytes, d.PeakFLOPS, d.MemBandwidth}
		ci, ok := seen[k]
		if !ok {
			ci = len(t.classes)
			seen[k] = ci
			t.classes = append(t.classes, DeviceClass{
				Name:         fmt.Sprintf("c%d", ci),
				MemoryBytes:  d.MemoryBytes,
				PeakFLOPS:    d.PeakFLOPS,
				MemBandwidth: d.MemBandwidth,
			})
		}
		t.classOf[i] = ci
	}
}

// Len returns the number of devices |V_D|.
func (t *Topology) Len() int { return len(t.devices) }

// Device returns the device with the given id.
func (t *Topology) Device(id DeviceID) Device { return t.devices[id] }

// Devices returns all devices in id order. The slice must not be modified.
func (t *Topology) Devices() []Device { return t.devices }

// Classes returns the interned device classes. Uniform topologies have
// exactly one. The slice must not be modified.
func (t *Topology) Classes() []DeviceClass { return t.classes }

// ClassOf returns the interned class index of device id.
func (t *Topology) ClassOf(id DeviceID) int { return t.classOf[id] }

// MinMemory returns the smallest device memory budget, the M of Equation 2.
func (t *Topology) MinMemory() float64 {
	if len(t.devices) == 0 {
		return 0
	}
	m := t.devices[0].MemoryBytes
	for _, d := range t.devices[1:] {
		if d.MemoryBytes < m {
			m = d.MemoryBytes
		}
	}
	return m
}

// BlockMinMemory returns the smallest memory budget inside a device block:
// the M of Equation 2 restricted to the devices a stage actually occupies.
func (t *Topology) BlockMinMemory(b Block) float64 {
	if b.Count <= 0 {
		return t.MinMemory()
	}
	m := t.devices[b.Start].MemoryBytes
	for _, d := range t.devices[b.Start+1 : b.Start+b.Count] {
		if d.MemoryBytes < m {
			m = d.MemoryBytes
		}
	}
	return m
}

// LevelCount returns the number of interconnect tiers.
func (t *Topology) LevelCount() int { return len(t.levels) }

// LinkLevel returns the innermost hierarchy level over which devices a and
// b communicate (0 = fastest tier). a == b is level 0 by convention.
func (t *Topology) LinkLevel(a, b DeviceID) int {
	for l, lv := range t.levels {
		if int(a)/lv.Width == int(b)/lv.Width {
			return l
		}
	}
	return len(t.levels) - 1
}

// InLinkLevel returns the level of the link feeding a block starting at
// start from its upstream neighbor (device start-1). The head of the
// pipeline has no upstream link and uses the innermost level.
func (t *Topology) InLinkLevel(start int) int {
	if start <= 0 {
		return 0
	}
	return t.LinkLevel(DeviceID(start-1), DeviceID(start))
}

// LevelDown returns the pipeline-forward (activation) bandwidth of level l.
func (t *Topology) LevelDown(l int) float64 { return t.levels[l].DownBandwidth }

// LevelUp returns the pipeline-backward (gradient) bandwidth of level l.
func (t *Topology) LevelUp(l int) float64 { return t.levels[l].UpBandwidth }

// LevelLatency returns the per-transfer latency of level l.
func (t *Topology) LevelLatency(l int) float64 { return t.levels[l].Latency }

// Canonical returns the canonical spec string for the topology, or "" for
// the default summit preset at this device count. The empty string keeps
// summit fingerprints byte-identical to their historical preimages, so
// artifacts planned before topologies were configurable keep their hashes.
func (t *Topology) Canonical() string {
	spec := Spec{Classes: t.classes, Levels: t.levels, Assign: t.classOf}
	c := spec.Canonical()
	if len(t.devices) > 0 && c == SummitSpec(len(t.devices)).Canonical() {
		return ""
	}
	return c
}

// Bandwidth returns the bytes/s available for a transfer from device a to
// device b. Direction matters on asymmetric hierarchies: transfers toward
// higher device ids (pipeline-forward, activations) use the level's down
// bandwidth, transfers toward lower ids (gradients) its up bandwidth.
func (t *Topology) Bandwidth(a, b DeviceID) float64 {
	if a == b {
		return t.devices[a].MemBandwidth // same-device "transfer"
	}
	l := t.LinkLevel(a, b)
	if a < b {
		return t.LevelDown(l)
	}
	return t.LevelUp(l)
}

// GroupLink returns the bottleneck link for transfers from one device
// group to another: the minimum pairwise bandwidth between any sender and
// receiver, and the per-transfer latency of the level that link belongs
// to (the largest among equally slow links). Stage boundaries are charged
// at this rate and latency.
func (t *Topology) GroupLink(from, to []DeviceID) (bandwidth, latency float64) {
	if len(from) == 0 || len(to) == 0 {
		return t.LevelDown(0), t.LevelLatency(0)
	}
	bandwidth = -1
	for _, a := range from {
		for _, b := range to {
			bw, lat := t.Bandwidth(a, b), t.LevelLatency(t.LinkLevel(a, b))
			if bandwidth < 0 || bw < bandwidth || (bw == bandwidth && lat > latency) {
				bandwidth, latency = bw, lat
			}
		}
	}
	return bandwidth, latency
}

// GroupSpansNodes reports whether the device group crosses a node boundary,
// which determines the bandwidth used for intra-stage gradient allreduce.
func (t *Topology) GroupSpansNodes(group []DeviceID) bool {
	if len(group) < 2 {
		return false
	}
	node := t.devices[group[0]].Node
	for _, d := range group[1:] {
		if t.devices[d].Node != node {
			return true
		}
	}
	return false
}

// ContiguousBlock returns the block covering the device group if the ids
// form a contiguous ascending run, which is how the planner places stages.
// Evaluators use it to recover placement-aware costs from a strategy; for
// non-contiguous groups (some baseline planners) ok is false and costs
// fall back to the placement-oblivious path.
func ContiguousBlock(ids []DeviceID) (Block, bool) {
	if len(ids) == 0 {
		return Block{}, false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			return Block{}, false
		}
	}
	return Block{Start: int(ids[0]), Count: len(ids)}, true
}

// SortIDs sorts device ids ascending in place and returns them.
func SortIDs(ids []DeviceID) []DeviceID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PlaceStages assigns device groups to stages so that groups avoid
// straddling node boundaries when possible: groups of a whole node or more
// get whole nodes, smaller groups are first-fit packed into single nodes.
// Planners assume a stage of at most one node's devices synchronizes
// gradients over the fast intra-node links; this placement makes that
// assumption hold. counts must sum to exactly the topology size.
func PlaceStages(t *Topology, counts []int) ([][]DeviceID, error) {
	total := 0
	for _, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("cluster: invalid stage device count %d", c)
		}
		total += c
	}
	if total != t.Len() {
		return nil, fmt.Errorf("cluster: stage device counts sum to %d, topology has %d", total, t.Len())
	}

	nodes := 1
	for _, d := range t.devices {
		if d.Node+1 > nodes {
			nodes = d.Node + 1
		}
	}
	free := make([][]DeviceID, nodes)
	for i := 0; i < t.Len(); i++ {
		d := t.devices[i]
		free[d.Node] = append(free[d.Node], d.ID)
	}

	// Place large groups first (whole nodes), then pack small groups
	// first-fit into the emptiest remaining nodes; process equal sizes in
	// stage order for determinism.
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	out := make([][]DeviceID, len(counts))
	for _, si := range order {
		need := counts[si]
		group := make([]DeviceID, 0, need)
		// Prefer nodes that fit the whole remainder; take the fullest
		// fitting node first to reduce fragmentation.
		for need > 0 {
			best := -1
			for ni := range free {
				if len(free[ni]) == 0 {
					continue
				}
				fits := len(free[ni]) >= need
				if best == -1 {
					best = ni
					continue
				}
				bestFits := len(free[best]) >= need
				switch {
				case fits && !bestFits:
					best = ni
				case fits == bestFits && len(free[ni]) < len(free[best]) && fits:
					best = ni // tightest fit among fitting nodes
				case fits == bestFits && !fits && len(free[ni]) > len(free[best]):
					best = ni // largest chunk when nothing fits
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("cluster: placement ran out of devices")
			}
			take := need
			if take > len(free[best]) {
				take = len(free[best])
			}
			group = append(group, free[best][:take]...)
			free[best] = free[best][take:]
			need -= take
		}
		out[si] = SortIDs(group)
	}
	return out, nil
}
