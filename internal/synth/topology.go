package synth

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"graphpipe/internal/cluster"
)

// Seeded topology families, the cluster-side twin of the model families:
// named heterogeneous / hierarchical cluster shapes whose bandwidths,
// speed ratios, and tier widths derive deterministically from a 64-bit
// seed. A family spec ("topo:hetero-speed/seed=7") resolves to a fully
// explicit cluster.Spec at a device count, so the conformance corpus can
// sweep (model, topology) pairs and replay any failure from the two
// strings alone — the same property the model families give graphs.
//
// Families:
//
//	uniform       one device class, one symmetric flat link tier
//	two-tier      one class, fast intra-node + slow inter-node links
//	hetero-speed  flat links, a fast and a slow device class (FLOPS)
//	hetero-memory flat links, a base and a large-memory device class
//	hierarchical  three link tiers with asymmetric up/down bandwidth
//
// Of the flat-link families (uniform, hetero-speed, hetero-memory) only
// uniform is also homogeneous, with every same-size device block costing
// alike: the planner's placement dimension is live on every other family.

// Baseline per-device capabilities the families perturb: V100-class
// numbers matching the summit preset, so a uniform synth topology is in
// the same cost regime as the paper testbed.
const (
	topoBaseMemory  = 16e9   // bytes
	topoBaseFLOPS   = 112e12 // FLOP/s
	topoBaseMemBW   = 900e9  // bytes/s
	topoBaseLatency = 5e-6   // seconds
)

// TopoSpec names one synthetic topology: a family plus the seed driving
// every derived quantity. Devices optionally pins the device count the
// spec was generated for; when set, resolving at a different count is an
// error (it would silently change the cluster under a replayed failure).
type TopoSpec struct {
	Family  string `json:"family"`
	Seed    int64  `json:"seed"`
	Devices int    `json:"devices,omitempty"`
}

// IsTopoSpec reports whether a topology name selects a synth family (a
// "topo:" name that is not a fully explicit spec).
func IsTopoSpec(name string) bool {
	return cluster.IsSpecName(name) && !cluster.IsExplicitSpec(name)
}

// String renders the canonical synth-topology form.
func (s TopoSpec) String() string {
	var sb strings.Builder
	sb.WriteString(cluster.SpecPrefix)
	sb.WriteString(s.Family)
	fmt.Fprintf(&sb, "/seed=%d", s.Seed)
	if s.Devices != 0 {
		fmt.Fprintf(&sb, "/devices=%d", s.Devices)
	}
	return sb.String()
}

// ParseTopo decodes a synth topology spec string.
func ParseTopo(name string) (TopoSpec, error) {
	if !IsTopoSpec(name) {
		return TopoSpec{}, fmt.Errorf("synth: %q is not a synth topology spec", name)
	}
	parts := strings.Split(strings.TrimPrefix(name, cluster.SpecPrefix), "/")
	if parts[0] == "" {
		return TopoSpec{}, fmt.Errorf("synth: topology spec %q is missing a family (known: %s)",
			name, strings.Join(TopoFamilies(), ", "))
	}
	spec := TopoSpec{Family: parts[0]}
	if _, ok := topoFamilies[spec.Family]; !ok {
		return TopoSpec{}, fmt.Errorf("synth: unknown topology family %q (known: %s)",
			spec.Family, strings.Join(TopoFamilies(), ", "))
	}
	seenSeed := false
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return TopoSpec{}, fmt.Errorf("synth: malformed topology knob %q in %q (want key=value)", kv, name)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
			seenSeed = true
		case "devices":
			spec.Devices, err = strconv.Atoi(v)
		default:
			return TopoSpec{}, fmt.Errorf("synth: unknown topology knob %q in %q", k, name)
		}
		if err != nil {
			return TopoSpec{}, fmt.Errorf("synth: topology knob %q in %q: %v", kv, name, err)
		}
	}
	if !seenSeed {
		return TopoSpec{}, fmt.Errorf("synth: topology spec %q is missing seed=N", name)
	}
	if spec.Devices < 0 || spec.Devices > cluster.MaxDevices {
		return TopoSpec{}, fmt.Errorf("synth: topology spec %q: devices must be within 0..%d", name, cluster.MaxDevices)
	}
	return spec, nil
}

// Resolve builds the explicit cluster spec the family derives from the
// seed at the given device count.
func (s TopoSpec) Resolve(devices int) (cluster.Spec, error) {
	f, ok := topoFamilies[s.Family]
	if !ok {
		return cluster.Spec{}, fmt.Errorf("synth: unknown topology family %q (known: %s)",
			s.Family, strings.Join(TopoFamilies(), ", "))
	}
	n := devices
	if s.Devices != 0 {
		if devices != 0 && devices != s.Devices {
			return cluster.Spec{}, fmt.Errorf("synth: topology %s pins devices=%d but was resolved at %d",
				s, s.Devices, devices)
		}
		n = s.Devices
	}
	if n < 1 || n > cluster.MaxDevices {
		return cluster.Spec{}, fmt.Errorf("synth: topology %s needs 1..%d devices, got %d", s, cluster.MaxDevices, n)
	}
	spec := f(s.Seed, n)
	if err := spec.Validate(); err != nil {
		return cluster.Spec{}, fmt.Errorf("synth: family %q at %d devices: %w", s.Family, n, err)
	}
	return spec, nil
}

// BuildTopology resolves a synth topology spec string at a device count.
func BuildTopology(name string, devices int) (*cluster.Topology, error) {
	spec, err := ParseTopo(name)
	if err != nil {
		return nil, err
	}
	cs, err := spec.Resolve(devices)
	if err != nil {
		return nil, err
	}
	return cs.Build()
}

// TopoFamilies lists the registered topology family names, sorted.
func TopoFamilies() []string {
	out := make([]string, 0, len(topoFamilies))
	for name := range topoFamilies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var topoFamilies = map[string]func(seed int64, n int) cluster.Spec{
	"uniform":       buildUniformTopo,
	"two-tier":      buildTwoTierTopo,
	"hetero-speed":  buildHeteroSpeedTopo,
	"hetero-memory": buildHeteroMemoryTopo,
	"hierarchical":  buildHierarchicalTopo,
}

// baseClass returns the V100-like class every family starts from.
func baseClass(name string) cluster.DeviceClass {
	return cluster.DeviceClass{
		Name: name, MemoryBytes: topoBaseMemory,
		PeakFLOPS: topoBaseFLOPS, MemBandwidth: topoBaseMemBW,
	}
}

// flatLevel is a single symmetric tier spanning all n devices.
func flatLevel(n int, bw float64) []cluster.Level {
	return []cluster.Level{{
		Name: "link", Width: n, DownBandwidth: bw, UpBandwidth: bw,
		Latency: topoBaseLatency,
	}}
}

// roundUpTier widens outer to a multiple of inner strictly above it, so
// the level widths nest (the overhang is simply unpopulated).
func roundUpTier(outer, inner int) int {
	if outer < inner {
		outer = inner
	}
	if r := outer % inner; r != 0 {
		outer += inner - r
	}
	if outer <= inner {
		outer = 2 * inner
	}
	return outer
}

func assignAll(n, class int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = class
	}
	return a
}

// uniform: one class, one symmetric flat link — the control arm every
// heterogeneous family is compared against. The link bandwidth still
// varies with the seed so conformance sweeps cover different
// compute/communication ratios.
func buildUniformTopo(seed int64, n int) cluster.Spec {
	bw := newRNG(seed, "topo/uniform/bw").floatBetween(25e9, 200e9)
	return cluster.Spec{
		Classes: []cluster.DeviceClass{baseClass("u")},
		Levels:  flatLevel(n, bw),
		Assign:  assignAll(n, 0),
	}
}

// two-tier: one class, fast intra-node links and a slower inter-node
// tier — the summit shape with seed-drawn widths and rates.
func buildTwoTierTopo(seed int64, n int) cluster.Spec {
	node := 2 << uint(newRNG(seed, "topo/two-tier/width").intBetween(0, 1)) // 2 or 4
	inner := newRNG(seed, "topo/two-tier/inner").floatBetween(100e9, 300e9)
	outer := newRNG(seed, "topo/two-tier/outer").floatBetween(5e9, 25e9)
	return cluster.Spec{
		Classes: []cluster.DeviceClass{baseClass("u")},
		Levels: []cluster.Level{
			{Name: "node", Width: node, DownBandwidth: inner, UpBandwidth: inner,
				Latency: topoBaseLatency},
			{Name: "cluster", Width: roundUpTier(n, node), DownBandwidth: outer,
				UpBandwidth: outer, Latency: topoBaseLatency},
		},
		Assign: assignAll(n, 0),
	}
}

// hetero-speed: flat links, two device classes differing only in
// compute throughput. The fast devices occupy the low ids, so tests can
// identify them without consulting the assignment.
func buildHeteroSpeedTopo(seed int64, n int) cluster.Spec {
	slow := newRNG(seed, "topo/hetero-speed/slow").floatBetween(40e12, 80e12)
	ratio := newRNG(seed, "topo/hetero-speed/ratio").floatBetween(1.5, 3)
	bw := newRNG(seed, "topo/hetero-speed/bw").floatBetween(25e9, 200e9)
	fast, slowCls := baseClass("fast"), baseClass("slow")
	fast.PeakFLOPS = slow * ratio
	slowCls.PeakFLOPS = slow
	nFast := (n + 1) / 2
	assign := make([]int, n)
	for i := nFast; i < n; i++ {
		assign[i] = 1
	}
	return cluster.Spec{
		Classes: []cluster.DeviceClass{fast, slowCls},
		Levels:  flatLevel(n, bw),
		Assign:  assign,
	}
}

// hetero-memory: flat links, a base class and a large-memory class on
// the high ids — memory-feasibility, not speed, differentiates
// placements.
func buildHeteroMemoryTopo(seed int64, n int) cluster.Spec {
	big := baseClass("big")
	big.MemoryBytes = newRNG(seed, "topo/hetero-memory/mem").floatBetween(24e9, 48e9)
	bw := newRNG(seed, "topo/hetero-memory/bw").floatBetween(25e9, 200e9)
	assign := make([]int, n)
	for i := n / 2; i < n; i++ {
		assign[i] = 1
	}
	return cluster.Spec{
		Classes: []cluster.DeviceClass{baseClass("base"), big},
		Levels:  flatLevel(n, bw),
		Assign:  assign,
	}
}

// hierarchical: three tiers (device pair, node, cluster) where the outer
// tiers have asymmetric up/down rates — gradients climb a slower uplink
// than the downlink activations descend.
func buildHierarchicalTopo(seed int64, n int) cluster.Spec {
	pair := newRNG(seed, "topo/hierarchical/pair").floatBetween(150e9, 300e9)
	nodeDown := newRNG(seed, "topo/hierarchical/node").floatBetween(40e9, 100e9)
	nodeUp := nodeDown * newRNG(seed, "topo/hierarchical/node-asym").floatBetween(0.5, 1)
	clusterDown := newRNG(seed, "topo/hierarchical/cluster").floatBetween(8e9, 15e9)
	clusterUp := clusterDown * newRNG(seed, "topo/hierarchical/cluster-asym").floatBetween(0.25, 0.75)
	return cluster.Spec{
		Classes: []cluster.DeviceClass{baseClass("u")},
		Levels: []cluster.Level{
			{Name: "pair", Width: 2, DownBandwidth: pair, UpBandwidth: pair,
				Latency: topoBaseLatency},
			{Name: "node", Width: 4, DownBandwidth: nodeDown, UpBandwidth: nodeUp,
				Latency: topoBaseLatency},
			{Name: "cluster", Width: roundUpTier(n, 4), DownBandwidth: clusterDown,
				UpBandwidth: clusterUp, Latency: topoBaseLatency},
		},
		Assign: assignAll(n, 0),
	}
}
